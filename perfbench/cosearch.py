"""Workloads, cells and output checks of the whole-co-search benchmark.

A *cell* is one UNICO co-search (network, scenario, search seed).  A
*pass* runs a workload's cells one after another from this process — a
closed loop with a single client — and returns one :class:`CellOutcome`
per cell.  Every outcome carries the deterministic results the benchmark
guards (simulated hours, engine queries, front hypervolume) and the list
of output-check failures, so a cell that raised or produced a wrong front
counts as failed instead of disappearing from the figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import Unico, UnicoConfig
from repro.costmodel.maestro import spatial_area_mm2
from repro.experiments.harness import make_platform, run_method
from repro.experiments.presets import get_preset
from repro.fleet import FleetSupervisor, ReplicaSpec, ShardedPPAEngine
from repro.optim.hypervolume import hypervolume
from repro.optim.pareto import non_dominated_mask
from repro.tracking import JournalSampleSink, JournalTracker, RunStore
from repro.tracking.journal import read_events
from repro.tracking.resume import verify_run
from repro.tracking.tracker import NullTracker
from repro.workloads import get_network

#: Hypervolume reference point per (scenario, network): (latency s, power W,
#: area mm^2).  Fixed here, never derived from the run being measured, so
#: ``front_hv`` of two commits is comparable.  Each axis sits at least 1.3x
#: above every front point seen on four to ten seeds when they were chosen;
#: a point outside its box adds no volume.
HV_REFERENCE: Dict[Tuple[str, str], Tuple[float, float, float]] = {
    ("edge", "resnet"): (6.0, 0.4, 4.0),
    ("edge", "mobilenet"): (1.0, 0.4, 4.0),
    ("edge", "bert"): (15.0, 0.4, 4.0),
    ("cloud", "bert"): (15.0, 5.0, 250.0),
    ("ascend", "resnet"): (1.0, 2.0, 50.0),
    ("ascend", "mobilenet"): (0.15, 2.0, 50.0),
}


@dataclass(frozen=True)
class Workload:
    """A named set of cells and how they reach the cost model."""

    name: str
    preset: str
    cells: Tuple[Tuple[str, str], ...]  # (network, scenario)
    #: search seeds per (network, scenario) in every pass
    seeds_per_cell: int = 1
    fleet: bool = False


# Cells are cheap presets with several seeds each rather than a few
# paper-preset cells: a cell's wall time varies by 10-20% with the hardware
# its seed samples, so a pass must average many cells to be steady, and a
# paper-preset cell costs ~12 s on two cores.  Bench-preset open-platform
# cells still spend half their wall in the mapping search and the GP fits;
# smoke-preset Ascend-like cells spend ~90% in the cycle-accurate simulator.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="open_bench",
            preset="bench",
            cells=(("resnet", "edge"), ("bert", "cloud"), ("mobilenet", "edge")),
            seeds_per_cell=4,
        ),
        Workload(
            name="ascend_ca",
            preset="smoke",
            cells=(("resnet", "ascend"), ("mobilenet", "ascend")),
            seeds_per_cell=10,
        ),
        Workload(
            name="fleet_tracked",
            preset="bench",
            cells=(("resnet", "edge"), ("mobilenet", "edge"), ("bert", "edge")),
            fleet=True,
        ),
    )
}

#: Replicas each network's fleet runs.
REPLICAS_PER_NETWORK = 2


@dataclass(frozen=True)
class Cell:
    network: str
    scenario: str
    seed: int

    @property
    def label(self) -> str:
        return f"{self.network}/{self.scenario}/s{self.seed}"


def cells_for(workload: Workload, seed: int) -> List[Cell]:
    """The workload's cells; cell ``i`` searches with seed ``100 * seed + i``."""
    pairs = list(workload.cells) * workload.seeds_per_cell
    return [
        Cell(network, scenario, seed * 100 + index)
        for index, (network, scenario) in enumerate(pairs)
    ]


@dataclass
class CellOutcome:
    """What one cell produced, and which output checks it failed."""

    cell: Cell
    wall_s: float = 0.0
    sim_s: float = 0.0
    queries: int = 0
    hv: float = 0.0
    sim_sw_search_s: float = 0.0
    sim_mobo_s: float = 0.0
    journal_events: int = 0
    journal_bytes: int = 0
    journal_digest: str = ""
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def deterministic(self) -> Dict:
        """Values two runs of the same code and seed must reproduce exactly."""
        return {
            "sim_s": self.sim_s,
            "queries": self.queries,
            "hv": self.hv,
            "sim_sw_search_s": self.sim_sw_search_s,
            "sim_mobo_s": self.sim_mobo_s,
            "journal_events": self.journal_events,
            "journal_digest": self.journal_digest,
        }


class _CaptureOptimizer(NullTracker):
    """A disabled tracker that only keeps a handle on the optimizer.

    ``run_method`` accepts a tracker; this one records nothing on the hot
    path (``enabled`` stays False) but lets the benchmark read the
    optimizer's clock once the cell is done.
    """

    optimizer = None

    def on_run_start(self, optimizer) -> None:
        self.optimizer = optimizer


def _normalized_hv(points: np.ndarray, scenario: str, network: str) -> float:
    """Hypervolume of ``points`` as a share of the fixed reference box."""
    reference = np.asarray(HV_REFERENCE[(scenario, network)], dtype=float)
    if points.size == 0:
        return 0.0
    return float(hypervolume(points / reference, np.ones(3)))


def check_front(result, caps: Dict) -> List[str]:
    """Non-empty, mutually non-dominated front inside the scenario caps."""
    points = result.pareto.points
    if points.shape[0] == 0:
        return ["empty Pareto front"]
    errors = []
    if not non_dominated_mask(points).all():
        errors.append("front holds dominated points")
    if len({tuple(p) for p in points.tolist()}) != points.shape[0]:
        errors.append("front holds duplicate points")
    if not np.all(np.isfinite(points)):
        errors.append("front holds non-finite points")
    power_cap, area_cap = caps.get("power_cap_w"), caps.get("area_cap_mm2")
    if power_cap is not None and np.any(points[:, 1] > power_cap):
        errors.append(f"front point above the {power_cap} W power cap")
    if area_cap is not None and np.any(points[:, 2] > area_cap):
        errors.append(f"front point above the {area_cap} mm^2 area cap")
    return errors


def _fill(outcome: CellOutcome, result, optimizer) -> None:
    outcome.sim_s = float(result.total_time_s)
    outcome.queries = int(result.total_engine_queries)
    outcome.hv = _normalized_hv(
        result.pareto.points, outcome.cell.scenario, outcome.cell.network
    )
    clock = optimizer.clock
    outcome.sim_sw_search_s = float(clock.total("sw-search"))
    outcome.sim_mobo_s = float(clock.total("mobo"))


def run_inprocess_cell(cell: Cell, preset: str, timed=None) -> CellOutcome:
    """One cell through ``run_method`` with the harness/CLI defaults.

    ``timed(cell)`` is a context manager around exactly the timed region
    (the traced run opens the cell's root span there).
    """
    outcome = CellOutcome(cell)
    capture = _CaptureOptimizer()
    _space, _engine, caps, _tool, _workers = make_platform(
        cell.scenario, get_network(cell.network)
    )
    start = time.perf_counter()
    try:
        with timed(cell) if timed else contextlib.nullcontext():
            result = run_method(
                "unico", cell.scenario, cell.network, preset,
                seed=cell.seed, tracker=capture,
            )
    except Exception as error:  # a failed cell is counted, not fatal
        outcome.errors.append(f"raised {type(error).__name__}: {error}")
        return outcome
    finally:
        outcome.wall_s = time.perf_counter() - start
    _fill(outcome, result, capture.optimizer)
    outcome.errors.extend(check_front(result, caps))
    return outcome


def warm_up(workload: Workload, seed: int) -> None:
    """Cold-start costs paid before the timed window.

    A bench-preset edge cell runs enough MOBO iterations to fit the GP
    (the first fit in a process can stall on BLAS/L-BFGS warm-up); a smoke
    cell per remaining scenario touches that platform's engine.
    """
    run_method("unico", "edge", "mobilenet", "bench", seed=seed)
    for scenario in dict.fromkeys(s for _n, s in workload.cells):
        if scenario != "edge":
            network = next(n for n, s in workload.cells if s == scenario)
            run_method("unico", scenario, network, "smoke", seed=seed)


# ----------------------------------------------------------------- fleet
def build_unico(cell: Cell, preset: str, engine=None):
    """``Unico`` on the cell's platform with ``UnicoConfig`` library defaults.

    The preset sets the MOBO batch, iterations and budget; the platform
    sets space, caps, tool and worker count; every other field —
    ``eval_batch_size`` included — keeps its ``UnicoConfig`` default.
    ``engine=None`` keeps the platform's in-process engine.
    """
    network = get_network(cell.network)
    space, local_engine, caps, tool, workers = make_platform(cell.scenario, network)
    params = get_preset(preset)
    config = UnicoConfig(
        batch_size=params.unico_batch,
        max_iterations=params.unico_iterations,
        max_budget=params.unico_budget,
        workers=workers,
    )
    optimizer = Unico(
        space, network, engine if engine is not None else local_engine,
        config, tool=tool, seed=cell.seed, **caps,
    )
    return optimizer, caps


class Fleet:
    """One two-replica :class:`FleetSupervisor` per network of a workload."""

    def __init__(self, networks: Sequence[str]):
        self.supervisors: Dict[str, FleetSupervisor] = {
            name: FleetSupervisor(
                ReplicaSpec(network=name), replicas=REPLICAS_PER_NETWORK
            )
            for name in dict.fromkeys(networks)
        }

    def start(self) -> "Fleet":
        """Start every replica and check each one's ``/health``."""
        try:
            for supervisor in self.supervisors.values():
                supervisor.start()
            for name, supervisor in self.supervisors.items():
                for row in supervisor.status():
                    health = row.get("health") or {}
                    if not row["alive"] or health.get("status") != "ok":
                        raise RuntimeError(f"{name} replica unhealthy: {row}")
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Drain and stop every supervisor at once; returns when all ended."""
        threads = [
            threading.Thread(target=supervisor.stop)
            for supervisor in self.supervisors.values()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def urls(self, network: str) -> List[str]:
        return list(self.supervisors[network].urls)

    def replica_metrics(self) -> List[Dict]:
        """Every replica's ``GET /metrics`` snapshot."""
        snapshots = []
        for supervisor in self.supervisors.values():
            for url in supervisor.urls:
                with urllib.request.urlopen(f"{url}/metrics", timeout=10) as reply:
                    snapshots.append(json.loads(reply.read()))
        return snapshots


def fleet_engine(cell: Cell, fleet: Fleet) -> ShardedPPAEngine:
    """The client engine of a fleet cell: at most one request per core."""
    return ShardedPPAEngine(
        get_network(cell.network),
        fleet.urls(cell.network),
        area_fn=spatial_area_mm2,
        max_inflight=max(1, min(REPLICAS_PER_NETWORK, os.cpu_count() or 1)),
    )


def journal_summary(path) -> Tuple[int, int, str]:
    """(events, bytes, digest of the events without wall-clock fields).

    Events carry ``wall_time`` and the ``engine_snapshot`` holds measured
    latencies and connection-pool counts, so the raw bytes differ from run
    to run by a few digits; the digest covers everything else.
    """
    scan = read_events(path)
    digest = hashlib.sha256()
    for event in scan.events:
        if event.get("type") == "engine_snapshot":
            continue
        event = {k: v for k, v in event.items() if k != "wall_time"}
        digest.update(json.dumps(event, sort_keys=True).encode())
    return len(scan.events), path.stat().st_size, digest.hexdigest()[:16]


def run_twin(cell: Cell, preset: str):
    """The same-seed in-process ``MaestroEngine`` twin of a fleet cell."""
    optimizer, _caps = build_unico(cell, preset)
    return optimizer.optimize()


def _same_timeline(result, twin) -> bool:
    if len(result.timeline) != len(twin.timeline):
        return False
    return all(
        mine.time_s == theirs.time_s
        and mine.feasible == theirs.feasible
        and np.array_equal(mine.ppa_vector, theirs.ppa_vector)
        for mine, theirs in zip(result.timeline, twin.timeline)
    )


def run_fleet_cell(
    cell: Cell, preset: str, fleet: Fleet, runs_root, twin, timed=None
) -> CellOutcome:
    """One journaled, checkpointed cell against the fleet."""
    outcome = CellOutcome(cell)
    run = RunStore(runs_root).create_run(
        {
            "method": "unico",
            "scenario": cell.scenario,
            "workload": cell.network,
            "preset": preset,
            "seed": cell.seed,
            "engine": ShardedPPAEngine.__name__,
        },
        run_id=f"{cell.network}-{cell.scenario}-s{cell.seed}",
    )
    start = time.perf_counter()
    try:
        with timed(cell) if timed else contextlib.nullcontext():
            engine = fleet_engine(cell, fleet)
            try:
                optimizer, caps = build_unico(cell, preset, engine=engine)
                tracker = JournalTracker(run, checkpoint_every=1)
                optimizer.tracker = tracker
                engine.sample_sink = JournalSampleSink(tracker.journal)
                result = optimizer.optimize()
            finally:
                engine.close()
    except Exception as error:  # a failed cell is counted, not fatal
        outcome.errors.append(f"raised {type(error).__name__}: {error}")
        return outcome
    finally:
        outcome.wall_s = time.perf_counter() - start
    _fill(outcome, result, optimizer)
    outcome.errors.extend(check_front(result, caps))
    if result.total_engine_queries != twin.total_engine_queries:
        outcome.errors.append(
            f"{result.total_engine_queries} queries, in-process twin "
            f"{twin.total_engine_queries}"
        )
    if not _same_timeline(result, twin):
        outcome.errors.append("timeline differs from the in-process twin")
    try:
        verify_run(run)
    except Exception as error:
        outcome.errors.append(f"verify_run: {type(error).__name__}: {error}")
    (
        outcome.journal_events,
        outcome.journal_bytes,
        outcome.journal_digest,
    ) = journal_summary(run.journal_path)
    return outcome
