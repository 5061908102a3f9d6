#!/usr/bin/env python3
"""Whole-co-search benchmark of the UNICO reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload open_bench --seed 0 --seconds 20 --trace 0

One client process runs the workload's co-search cells one after another
(closed loop) and checks every cell's output.  The run has four phases:

1. **Set-up** — fresh interpreters are spawned several times and timed
   until each is ready to run the workload (``setup_probe.py``).
2. **Warm-up** — cold-start costs are paid before the timed window
   (for ``fleet_tracked``: the in-process twins the fleet must match).
3. **Timed passes** — every cell runs once per pass, untraced.  Passes
   repeat while the window of ``--seconds`` has time left; at least one
   pass always completes, so a pass longer than the window is measured
   whole.  Every timed cell is followed by a host tick (:func:`host_tick`),
   and times are reported at a fixed host speed.
4. **Traced passes** (``--trace 1`` only) — the same cells again with
   every layer's entry point wrapped (``layers.py``), for as long again.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; both print a table with units, and the last line of standard
output is one JSON object: ``correct``, ``attempted`` (cells run),
``failed`` (cells that raised or failed an output check) and ``metrics``.
Every result also lands in ``.perfbench/`` with an environment stamp, and
traced spans in ``.perfbench/<workload>.spans.jsonl``.

Determinism self-check: simulated hours, engine queries, front
hypervolume, simulated time per label, CA simulator calls and the journal
contents must be identical in every pass of a run and in every run of the
same code, seed and environment (``.perfbench/determinism.json``).  A
mismatch makes the run incorrect; it is never averaged away.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5

#: Body of a lowest-priority busy loop that exits once its parent is gone.
#: One per CPU keeps every CPU out of its idle state while the benchmark
#: runs.  On a virtual machine, waking an idle virtual CPU costs host
#: scheduling latency (it shows as steal time): on a 2-vCPU VM it moved
#: the fleet workload's pass wall between 6 s and 12 s from one minute to
#: the next, while the program's own work stayed the same.  At nice 19 a
#: spinner gets about 1.5% of a CPU that a program thread wants.
SPINNER = (
    "import os\n"
    "os.nice(19)\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)

#: BLAS thread count of the benchmark process, its probes and the fleet
#: replicas, set before NumPy loads.  With the library default of one
#: thread per CPU, the GP fits' many small BLAS calls wait on a partner
#: thread that only runs while the host schedules both virtual CPUs at
#: once: on a 2-vCPU VM, the same twelve bench cells took 4 s alone and
#: 21-26 s next to two busy processes with two threads, against 7 s with
#: one.  The wall time then measured the neighbours' load, not the program.
BLAS_THREADS = "1"

#: Host speed the reported times are scaled to (see :func:`host_tick`):
#: a round figure near the fastest ticks seen on a 2-vCPU VM.
REFERENCE_TICK_S = 0.005

#: name -> unit, for the ``--trace 0`` and ``--trace 1`` results.
END_TO_END = {
    "cosearch_wall_s": "s",
    "setup_s": "s",
    "sim_hours": "h",
    "engine_queries": "count",
    "front_hv": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "startup.import_s": "s",
    "optim.gp.fit_s": "s",
    "optim.gp.fit_calls": "count",
    "optim.mobo.suggest_self_s": "s",
    "core.trial_init_self_s": "s",
    "core.assess_self_s": "s",
    "core.trial_runs": "count",
    "mapping.search_self_s": "s",
    "mapping.candidates_folded": "count",
    "mapping.useful_eval_ratio": "ratio",
    "costmodel.engine.self_s": "s",
    "costmodel.engine.cache_hit_ratio": "ratio",
    "costmodel.engine.batch_calls": "count",
    "costmodel.engine.mean_batch": "count",
    "costmodel.maestro.scalar_s": "s",
    "costmodel.maestro.scalar_calls": "count",
    "costmodel.maestro.batch_s": "s",
    "costmodel.maestro.batch_items": "count",
    "camodel.simulate_s": "s",
    "camodel.simulate_calls": "count",
    "camodel.us_per_call": "us",
    "fleet.client.request_s": "s",
    "fleet.client.requests": "count",
    "fleet.client.request_p50_ms": "ms",
    "fleet.client.request_p99_ms": "ms",
    "fleet.client.retries": "count",
    "fleet.replica.compute_s": "s",
    "fleet.replica.cache_hit_ratio": "ratio",
    "tracking.append_s": "s",
    "tracking.events": "count",
    "tracking.bytes": "bytes",
    "tracking.checkpoint_s": "s",
    "sim.sw_search_h": "h",
    "sim.mobo_h": "h",
    "obs.traced_wall_s": "s",
    "obs.unattributed_s": "s",
    "obs.attributed_share": "ratio",
    "obs.trace_overhead": "ratio",
    "obs.untraced_wall_s": "s",
    "obs.host_tick_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment
def source_digest() -> str:
    """Content hash of the program and the benchmark (the checkout may lack
    git, and the determinism ledger must not mix either's versions)."""
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def blas_threads() -> int:
    """Threads NumPy's OpenBLAS will use; 0 when it cannot be asked."""
    import ctypes

    import numpy

    libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return 0


def environment(args) -> dict:
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------- host speed
@functools.lru_cache(maxsize=1)
def _tick_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48))
    big = rng.standard_normal(1 << 20)
    return a, a @ a.T + 48.0 * np.eye(48), big, np.empty_like(big)


def host_tick() -> float:
    """Seconds a fixed mix of small dense solves, dict updates and passes
    over an 8 MB array takes now, averaged over three tries.

    The host's speed drifts on its own: on a shared 2-vCPU VM a fixed
    pure-Python loop took 0.35-1.1 s within one minute, and ten
    ``open_bench`` runs whose engine queries differed by under 1% slowed
    by 1.7x over four minutes.  A tick taken next to every
    timed cell and every set-up probe measures the host's speed at that
    moment, for the kinds of work the program does (small BLAS calls,
    interpreted loops, memory traffic).  The tick runs no code of the
    program, so a change to the program moves the reported times by
    exactly as much as it moves the wall time.
    """
    import numpy as np

    a, spd, big, buffer = _tick_inputs()
    start = time.perf_counter()
    for _ in range(3):
        counts = {}
        for _ in range(10):
            np.linalg.cholesky(spd)
            np.linalg.solve(spd, a[:, :4])
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
        for _ in range(2):
            big.sum()
            np.multiply(big, 1.5, out=buffer).max()
    return (time.perf_counter() - start) / 3


# ----------------------------------------------------------------- set-up
def setup_probe(workload: str, seed: int) -> dict:
    """Spawn one fresh interpreter; time it until it is ready."""
    tick_s = host_tick()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload, str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    report = json.loads(line)
    report["setup_s"] = ready_s
    report["tick_s"] = (tick_s + host_tick()) / 2
    return report


# ----------------------------------------------------------------- passes
@dataclass
class Pass:
    """One run of every cell; traced passes also keep their spans.

    ``ticks[i]`` is the :func:`host_tick` taken right after cell ``i``.
    """

    outcomes: list
    ticks: list
    replicas: list
    tracer: object = None
    layer_metrics: dict = None
    profile: object = None

    @property
    def wall_s(self) -> float:
        return sum(outcome.wall_s for outcome in self.outcomes)


def median_pass_wall(passes, at_reference_speed=True) -> float:
    """Sum over the cells of each cell's median wall time across passes.

    The host's throughput swings by a factor of up to three for seconds
    at a time on a shared 2-vCPU VM, so a slow stretch spoils whichever
    cells it overlaps rather than whole passes; a median taken per cell
    drops it wherever fewer than half of that cell's runs fell into it.
    With ``at_reference_speed``, each cell's wall time is first scaled by
    ``REFERENCE_TICK_S`` over the :func:`host_tick` taken right after it.
    """
    def scale(tick_s):
        return REFERENCE_TICK_S / tick_s if at_reference_speed else 1.0

    return sum(
        statistics.median(outcome.wall_s * scale(tick) for outcome, tick in runs)
        for runs in zip(*(zip(p.outcomes, p.ticks) for p in passes))
    )


def run_pass(workload, cells, twins, tracer=None) -> Pass:
    """Run every cell once, closed loop; ``tracer`` wraps the layers."""
    import cosearch

    timed = None
    wrapped = contextlib.nullcontext()
    if tracer is not None:
        timed = lambda cell: tracer.cell(f"{workload.name}-{cell.label}")  # noqa: E731
        wrapped = tracer
    outcomes, ticks = [], []
    if not workload.fleet:
        with wrapped:
            for cell in cells:
                outcomes.append(
                    cosearch.run_inprocess_cell(cell, workload.preset, timed)
                )
                ticks.append(host_tick())
        return Pass(outcomes, ticks, [], tracer)
    runs_root = OUT / "runs" / workload.name
    shutil.rmtree(runs_root, ignore_errors=True)
    # a fresh fleet per pass: every pass starts from cold replica caches,
    # and the replicas are forked before the layers are wrapped
    fleet = cosearch.Fleet([cell.network for cell in cells]).start()
    try:
        with wrapped:
            for cell in cells:
                outcomes.append(
                    cosearch.run_fleet_cell(
                        cell, workload.preset, fleet, runs_root, twins[cell], timed
                    )
                )
                ticks.append(host_tick())
        replicas = fleet.replica_metrics()
    finally:
        fleet.stop()
        shutil.rmtree(runs_root, ignore_errors=True)
    return Pass(outcomes, ticks, replicas, tracer)


def timed_passes(workload, cells, twins, seconds, traced=False):
    """Passes until the window is used up (at least one)."""
    from layers import LayerTracer, layer_metrics

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer = LayerTracer() if traced else None
        result = run_pass(workload, cells, twins, tracer)
        if traced:
            result.layer_metrics, result.profile = layer_metrics(
                tracer, result.replicas
            )
        passes.append(result)
    return passes


# ------------------------------------------------------------ determinism
def determinism_errors(key: str, passes) -> list:
    """Compare every pass with the first, and the run with earlier runs."""
    records = [[o.deterministic() for o in p.outcomes] for p in passes]
    errors = [
        f"pass {index} differs from pass 0"
        for index, record in enumerate(records)
        if record != records[0]
    ]
    calls = [
        p.layer_metrics["camodel.simulate_calls"]
        for p in passes
        if p.layer_metrics is not None
    ]
    if len(set(calls)) > 1:
        errors.append(f"camodel.simulate_calls differs by pass: {calls}")
    ledger_path = OUT / "determinism.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    entry = {"cells": records[0]}
    if calls:
        entry["camodel.simulate_calls"] = calls[0]
    previous = ledger.get(key, {})
    for field, value in entry.items():
        if field in previous and previous[field] != value:
            errors.append(f"{field} differs from an earlier run of this code")
    ledger[key] = {**previous, **entry}
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return errors


# ----------------------------------------------------------------- report
def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"{title}:")
    for name, unit in units.items():
        print(f"  {name:<34s}{metrics[name]:>16.6g} {unit}")


def per_layer_metrics(traced, probes, passes) -> dict:
    """Medians over the traced passes, plus what the probes and cells saw."""
    first = passes[0]
    per_layer = {
        name: statistics.median(p.layer_metrics[name] for p in traced)
        for name in traced[0].layer_metrics
    }
    per_layer.update(
        {
            "startup.import_s": statistics.median(p["import_s"] for p in probes),
            "tracking.bytes": sum(o.journal_bytes for o in first.outcomes),
            "sim.sw_search_h": sum(o.sim_sw_search_s for o in first.outcomes)
            / 3600.0,
            "sim.mobo_h": sum(o.sim_mobo_s for o in first.outcomes) / 3600.0,
            "obs.trace_overhead": (
                median_pass_wall(traced) / median_pass_wall(passes) - 1.0
            ),
            "obs.untraced_wall_s": median_pass_wall(passes, False),
            "obs.host_tick_ms": 1e3 * statistics.median(
                tick for p in passes for tick in p.ticks
            ),
        }
    )
    return per_layer


@contextlib.contextmanager
def busy_cpus():
    """Run one :data:`SPINNER` per CPU for the duration of the block."""
    spinners = [
        subprocess.Popen([sys.executable, "-c", SPINNER])
        for _ in range(os.cpu_count() or 1)
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    import cosearch

    if args.workload not in cosearch.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of "
              f"{sorted(cosearch.WORKLOADS)}", file=sys.stderr)
        return 2
    with busy_cpus():
        return measure(args, cosearch.WORKLOADS[args.workload])


def measure(args, workload) -> int:
    """Set up, warm up, time the passes, check and report (see module doc)."""
    import cosearch

    OUT.mkdir(exist_ok=True)
    cells = cosearch.cells_for(workload, args.seed)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    probes = [setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    twins = {}
    if workload.fleet:
        twins = {cell: cosearch.run_twin(cell, workload.preset) for cell in cells}
    else:
        cosearch.warm_up(workload, args.seed)
    passes = timed_passes(workload, cells, twins, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        traced = timed_passes(workload, cells, twins, args.seconds, traced=True)

    everything = passes + traced
    attempted = sum(len(p.outcomes) for p in everything)
    failed = sum(1 for p in everything for o in p.outcomes if not o.ok)
    errors = [
        f"pass {index} {outcome.cell.label}: {error}"
        for index, p in enumerate(everything)
        for outcome in p.outcomes
        for error in outcome.errors
    ]
    key = "|".join(
        str(env[k]) for k in ("workload", "seed", "source_digest", "blas",
                              "blas_threads", "numpy", "scipy", "python")
    )
    errors += determinism_errors(key, everything)

    first = passes[0].outcomes
    end_to_end = {
        "cosearch_wall_s": median_pass_wall(passes),
        "setup_s": statistics.median(
            p["setup_s"] * REFERENCE_TICK_S / p["tick_s"] for p in probes
        ),
        "sim_hours": sum(o.sim_s for o in first) / 3600.0,
        "engine_queries": sum(o.queries for o in first),
        "front_hv": statistics.mean(o.hv for o in first),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"cells per pass: {', '.join(cell.label for cell in cells)}")
    print("untraced pass walls (s): "
          + ", ".join(f"{p.wall_s:.3f}" for p in passes))
    print("setup probes (s): "
          + ", ".join(f"{p['setup_s']:.3f}" for p in probes))
    print("host ticks (ms): median "
          f"{1e3 * statistics.median(t for p in passes for t in p.ticks):.3f} "
          f"over the untraced cells, reference {1e3 * REFERENCE_TICK_S:g}")
    print("untraced wall as measured (s): "
          f"{median_pass_wall(passes, False):.3f}")
    print_table("end-to-end", end_to_end, END_TO_END)
    print(f"  {'error_rate':<34s}{failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} cells)")
    metrics, units = end_to_end, END_TO_END
    if traced:
        from repro.obs.profile import render_profile

        metrics = per_layer_metrics(traced, probes, passes)
        units = PER_LAYER
        print("traced pass walls (s): "
              + ", ".join(f"{p.wall_s:.3f}" for p in traced))
        print("span profile of the last traced pass:")
        print(render_profile(traced[-1].profile))
        print_table("per-layer", metrics, PER_LAYER)
        with open(OUT / f"{workload.name}.spans.jsonl", "w") as handle:
            for p in traced:
                for span in p.tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    for line in errors:
        print(f"FAILED {line}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    (OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"env": env, "errors": errors, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
