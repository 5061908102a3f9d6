"""Outside-in per-layer tracing for the whole-co-search benchmark.

The program is not edited.  :class:`LayerTracer` replaces the public entry
point of each layer with a wrapper that records a span — name, start, end,
parent id, and the trace id of the cell it belongs to — and puts
the originals back when it is closed.  Spans stay in memory until the run
ends.  Self times come from :func:`repro.obs.profile.build_profile`; the
self time of the per-cell root span is the time no layer span covers.

Layer entry points (span name -> wrapped callable):

=====================  ==================================================
``optim.gp``           ``GaussianProcess.fit``
``optim.mobo``         ``MOBOSampler.suggest_batch``
``core.trial_init``    ``CoOptimizer.new_trial``
``core.assess``        ``CoOptimizer.finish_candidate``
``core.trial_run``     ``SWSearchTrial.run``
``mapping``            ``AnytimeMappingSearch.run``
``costmodel.engine``   ``evaluate_layer`` / ``evaluate_layers`` /
                       ``evaluate_candidates`` of every engine class that
                       defines them
``maestro.scalar``     ``analyze_gemm`` as looked up by the engine module
``maestro.batch``      ``analyze_gemm_batch`` as looked up there
``camodel``            ``simulate_layer`` as looked up by the CA engine
``fleet.client``       ``ConnectionPool.request``
``tracking.append``    ``EventJournal.append``
``tracking.checkpoint``  ``JournalTracker.checkpoint``
=====================  ==================================================
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.obs.profile import build_profile

CELL_SPAN = "cell"

_perf_counter = time.perf_counter


def _entry_points():
    """(span name, owner, attribute, attrs hook) for every wrapped layer."""
    import repro.camodel.engine as camodel_engine
    import repro.costmodel.engine as engine_module
    from repro.camodel import AscendCAEngine
    from repro.core.base import CoOptimizer
    from repro.core.evaluation import SWSearchTrial
    from repro.costmodel.engine import MaestroEngine, PPAEngine
    from repro.costmodel.service import RemotePPAEngine
    from repro.fleet.client import ShardedPPAEngine
    from repro.fleet.pool import ConnectionPool
    from repro.mapping.base import AnytimeMappingSearch
    from repro.optim.gp import GaussianProcess
    from repro.optim.mobo import MOBOSampler
    from repro.tracking.journal import EventJournal
    from repro.tracking.tracker import JournalTracker

    points = [
        ("optim.gp", GaussianProcess, "fit", None),
        ("optim.mobo", MOBOSampler, "suggest_batch", None),
        ("core.trial_init", CoOptimizer, "new_trial", None),
        ("core.assess", CoOptimizer, "finish_candidate", None),
        ("core.trial_run", SWSearchTrial, "run", None),
        ("mapping", AnytimeMappingSearch, "run", "folded"),
        ("maestro.scalar", engine_module, "analyze_gemm", None),
        ("maestro.batch", engine_module, "analyze_gemm_batch", "items"),
        ("camodel", camodel_engine, "simulate_layer", None),
        ("fleet.client", ConnectionPool, "request", "pool"),
        ("tracking.append", EventJournal, "append", None),
        ("tracking.checkpoint", JournalTracker, "checkpoint", None),
    ]
    hooks = {
        "evaluate_layer": "engine",
        "evaluate_layers": "engine",
        "evaluate_candidates": "engine_batch",
    }
    for cls in (PPAEngine, MaestroEngine, AscendCAEngine, RemotePPAEngine,
                ShardedPPAEngine):
        for attribute, hook in hooks.items():
            if attribute in vars(cls):
                points.append(("costmodel.engine", cls, attribute, hook))
    return points


class LayerTracer:
    """Wraps the layers' entry points and keeps their spans in memory.

    Spans opened on a worker thread with no open span of its own (the
    fleet client's fan-out threads) are parented to the innermost span
    open on the thread that created the tracer: that is the call they
    serve.
    """

    def __init__(self):
        self.spans: List[Dict] = []
        #: engines and connection pools seen, for their own counters
        self.engines: Dict[int, object] = {}
        self.pools: Dict[int, object] = {}
        self.trace_id = ""
        self.main_thread = threading.get_ident()
        self._main_stack: List[int] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> List[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, parent, span_id

    def _close(self, stack, name, parent, span_id, start, attrs) -> None:
        end = _perf_counter()
        stack.pop()
        self.spans.append(
            {
                "name": name,
                "trace_id": self.trace_id,
                "span_id": span_id,
                "parent_id": parent,
                "wall_start_s": start,
                "wall_end_s": end,
                "wall_dur_s": end - start,
                "sim_dur_s": 0.0,
                "thread": threading.get_ident(),
                "attrs": attrs,
            }
        )

    @contextmanager
    def cell(self, trace_id: str):
        """The root span of one cell; its spans share ``trace_id``."""
        self.trace_id = trace_id
        stack, parent, span_id = self._open()
        start = _perf_counter()
        try:
            yield
        finally:
            self._close(stack, CELL_SPAN, parent, span_id, start, {})

    def _wrap(self, name: str, fn, hook: Optional[str]):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if hook == "folded":
                before = args[0].spent_budget
            elif hook in ("engine", "engine_batch"):
                tracer.engines[id(args[0])] = args[0]
                if hook == "engine_batch":
                    attrs["batch"] = len(args[3])
            elif hook == "items":
                attrs["items"] = len(args[1])
            elif hook == "pool":
                tracer.pools[id(args[0])] = args[0]
            stack, parent, span_id = tracer._open()
            start = _perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if hook == "folded":
                    attrs["folded"] = args[0].spent_budget - before
                tracer._close(stack, name, parent, span_id, start, attrs)

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- install
    def install(self) -> "LayerTracer":
        for name, owner, attribute, hook in _entry_points():
            original = vars(owner)[attribute]
            setattr(owner, attribute, self._wrap(name, original, hook))
            self._restore.append(
                lambda owner=owner, attribute=attribute, original=original:
                setattr(owner, attribute, original)
            )
        return self

    def close(self) -> None:
        """Put every original entry point back."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.close()


def clip_concurrent(spans: List[Dict], main_thread: int) -> List[Dict]:
    """Clip worker-thread siblings to the union of their intervals.

    The fleet client's fan-out runs chunk requests of one call side by
    side; summed, they would exceed the wall time the calling thread
    waited.  Attribution wants the wait, so overlapping siblings are
    trimmed front to back until they tile their union.
    """
    by_parent: Dict[object, List[Dict]] = {}
    out = []
    for span in spans:
        if span["thread"] == main_thread:
            out.append(span)
        else:
            by_parent.setdefault(span["parent_id"], []).append(span)
    for siblings in by_parent.values():
        cursor = float("-inf")
        for span in sorted(siblings, key=lambda s: s["wall_start_s"]):
            end = span["wall_end_s"]
            begin = max(span["wall_start_s"], cursor)
            clipped = dict(span)
            clipped["wall_dur_s"] = max(0.0, end - begin)
            cursor = max(cursor, end)
            out.append(clipped)
    return out


def layer_metrics(tracer: LayerTracer, replicas: List[Dict]):
    """(per-layer metrics, span profile) of one traced pass.

    ``replicas`` are the fleet replicas' ``GET /metrics`` snapshots taken
    at the end of the pass (empty for in-process workloads).
    """
    profile = build_profile(clip_concurrent(tracer.spans, tracer.main_thread))
    phases = {phase.name: phase for phase in profile.phases}

    def self_s(name: str) -> float:
        phase = phases.get(name)
        return phase.wall_self_s if phase else 0.0

    def count(name: str) -> int:
        phase = phases.get(name)
        return phase.count if phase else 0

    def attr_sum(name: str, key: str) -> int:
        return sum(
            int(s["attrs"].get(key, 0)) for s in tracer.spans if s["name"] == name
        )

    engines = list(tracer.engines.values())
    queries = sum(engine.num_queries for engine in engines)
    hits = sum(engine.num_cache_hits for engine in engines)
    batch_calls = sum(
        1 for s in tracer.spans
        if s["name"] == "costmodel.engine" and "batch" in s["attrs"]
    )
    batch_items = attr_sum("costmodel.engine", "batch")
    folded = attr_sum("mapping", "folded")
    requests_ms = [
        1e3 * s["wall_dur_s"] for s in tracer.spans if s["name"] == "fleet.client"
    ]
    retries = sum(getattr(e, "num_network_retries", 0) for e in engines) + sum(
        pool.num_stale_retries for pool in tracer.pools.values()
    )
    simulate_calls = count("camodel")
    replica_queries = sum(r["engine"]["num_queries"] for r in replicas)
    replica_hits = sum(r["engine"]["num_cache_hits"] for r in replicas)
    replica_compute = sum(
        r["metrics"]["histograms"].get("engine_compute_seconds", {}).get("sum", 0.0)
        for r in replicas
    )
    traced_wall = profile.total_wall_s
    unattributed = self_s(CELL_SPAN)
    return {
        "optim.gp.fit_s": self_s("optim.gp"),
        "optim.gp.fit_calls": count("optim.gp"),
        "optim.mobo.suggest_self_s": self_s("optim.mobo"),
        "core.trial_init_self_s": self_s("core.trial_init"),
        "core.assess_self_s": self_s("core.assess"),
        "core.trial_runs": count("core.trial_run"),
        "mapping.search_self_s": self_s("mapping"),
        "mapping.candidates_folded": folded,
        "mapping.useful_eval_ratio": folded / queries if queries else 0.0,
        "costmodel.engine.self_s": self_s("costmodel.engine"),
        "costmodel.engine.cache_hit_ratio": hits / queries if queries else 0.0,
        "costmodel.engine.batch_calls": batch_calls,
        "costmodel.engine.mean_batch": (
            batch_items / batch_calls if batch_calls else 0.0
        ),
        "costmodel.maestro.scalar_s": self_s("maestro.scalar"),
        "costmodel.maestro.scalar_calls": count("maestro.scalar"),
        "costmodel.maestro.batch_s": self_s("maestro.batch"),
        "costmodel.maestro.batch_items": attr_sum("maestro.batch", "items"),
        "camodel.simulate_s": self_s("camodel"),
        "camodel.simulate_calls": simulate_calls,
        "camodel.us_per_call": (
            1e6 * self_s("camodel") / simulate_calls if simulate_calls else 0.0
        ),
        "fleet.client.request_s": self_s("fleet.client"),
        "fleet.client.requests": len(requests_ms),
        "fleet.client.request_p50_ms": (
            float(np.percentile(requests_ms, 50)) if requests_ms else 0.0
        ),
        "fleet.client.request_p99_ms": (
            float(np.percentile(requests_ms, 99)) if requests_ms else 0.0
        ),
        "fleet.client.retries": retries,
        "fleet.replica.compute_s": replica_compute,
        "fleet.replica.cache_hit_ratio": (
            replica_hits / replica_queries if replica_queries else 0.0
        ),
        "tracking.append_s": self_s("tracking.append"),
        "tracking.events": count("tracking.append"),
        "tracking.checkpoint_s": self_s("tracking.checkpoint"),
        "obs.traced_wall_s": traced_wall,
        "obs.unattributed_s": unattributed,
        "obs.attributed_share": (
            1.0 - unattributed / traced_wall if traced_wall else 0.0
        ),
    }, profile
