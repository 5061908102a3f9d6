"""Engine memo hygiene: the hw-key memo and the instrument handles."""

import pickle
import sys
import threading

from repro.core.multiworkload import MultiWorkloadEngine
from repro.costmodel import MaestroEngine
from repro.mapping import GemmMapping
from repro.utils.metrics import MetricsRegistry
from repro.workloads import Gemm, Network

MAPPINGS = [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4, 8)]


def _queries(engine):
    return engine.metrics.counter_value("engine_queries_total")


class TestHwKeyMemo:
    def test_equal_configs_share_a_key(self, tiny_network, edge_space, sample_hw):
        engine = MaestroEngine(tiny_network)
        twin = edge_space.to_config(edge_space.from_config(sample_hw))
        assert twin is not sample_hw
        assert engine.hw_key(sample_hw) == engine.hw_key(twin)
        assert engine.hw_key(sample_hw) == tuple(sorted(vars(sample_hw).items()))

    def test_switching_configs_rekeys(self, tiny_network, edge_space, sample_hw):
        engine = MaestroEngine(tiny_network)
        other = edge_space.sample(3)
        for hw in (sample_hw, other, sample_hw):
            assert engine.hw_key(hw) == tuple(sorted(vars(hw).items()))
        first = engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        second = engine.evaluate_layer(other, MAPPINGS[0], "gemm")
        assert engine.num_cache_hits == 0
        assert engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm") is first
        assert engine.evaluate_layer(other, MAPPINGS[0], "gemm") is second


class TestInstrumentHandles:
    def test_counters_appear_on_first_use_only(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        counters = engine.metrics.snapshot()["counters"]
        assert "engine_cache_hits_total" not in counters
        assert counters["engine_cache_misses_total"] == 1

    def test_reassigned_registry_gets_the_counts(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        old = engine.metrics
        engine.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        engine.metrics = MetricsRegistry()
        engine.evaluate_layer(sample_hw, MAPPINGS[1], "gemm")
        engine.evaluate_layer(sample_hw, MAPPINGS[1], "gemm")
        assert _queries(engine) == 2
        assert engine.metrics.counter_value("engine_cache_hits_total") == 1
        assert old.counter_value("engine_queries_total") == 1

    def test_multiworkload_shared_registry(self, tiny_network, sample_hw):
        other_network = Network(
            name="other", layers=(Gemm(name="g2", m=16, n=16, k=16),), family="test"
        )
        first = MaestroEngine(tiny_network)
        second = MaestroEngine(other_network)
        # warm both engines' handles on their own registries first
        first.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        second.evaluate_layer(sample_hw, MAPPINGS[0], "g2")
        second_own = second.metrics
        composite = MultiWorkloadEngine({"a": first, "b": second})
        shared = composite.metrics
        assert shared is first.metrics is second.metrics
        before = shared.counter_value("engine_queries_total")
        for mapping in MAPPINGS:
            first.evaluate_layer(sample_hw, mapping, "gemm")
            second.evaluate_layer(sample_hw, mapping, "g2")
        second.evaluate_candidates(sample_hw, "g2", MAPPINGS)
        assert shared.counter_value("engine_queries_total") == before + 12
        assert shared.counter_value("engine_cache_hits_total") == 2 + 4
        assert second_own.counter_value("engine_queries_total") == 1
        assert composite.num_queries == 14


class TestPickledEngine:
    def test_roundtrip_drops_memos_and_keeps_working(self, tiny_network, sample_hw):
        engine = MaestroEngine(tiny_network)
        original = [engine.evaluate_layer(sample_hw, m, "gemm") for m in MAPPINGS]
        state = engine.__getstate__()
        assert "_hw_key_memo" not in state and "_instrument_memo" not in state

        clone = pickle.loads(pickle.dumps(engine))
        assert clone.metrics is not engine.metrics
        queries_before = _queries(clone)
        again = [clone.evaluate_layer(sample_hw, m, "gemm") for m in MAPPINGS]
        assert again == original
        assert clone.hw_key(sample_hw) == engine.hw_key(sample_hw)
        assert _queries(clone) == queries_before + len(MAPPINGS)
        assert _queries(engine) == len(MAPPINGS)
        # the clone's cache shipped empty: every query above was a miss
        assert clone.num_cache_hits == 0
        clone.evaluate_layer(sample_hw, MAPPINGS[0], "gemm")
        assert clone.metrics.counter_value("engine_cache_hits_total") == 1


class TestThreadedMemo:
    def test_threads_alternating_configs(self, tiny_network, edge_space):
        """Threads switching ``hw`` on one engine never read a key of the
        wrong config: every result equals a private engine's."""
        configs = [edge_space.sample(seed) for seed in range(4)]
        mappings = [GemmMapping(4, 8, 4, unroll=u) for u in (1, 2, 4)]
        reference = MaestroEngine(tiny_network)
        expected = {
            (i, j): reference.evaluate_layer(hw, m, "gemm")
            for i, hw in enumerate(configs)
            for j, m in enumerate(mappings)
        }
        shared = MaestroEngine(tiny_network)
        failures = []
        rounds = 150

        def worker(offset):
            for step in range(rounds):
                i = (step + offset) % len(configs)
                j = step % len(mappings)
                key = shared.hw_key(configs[i])
                if key != tuple(sorted(vars(configs[i]).items())):
                    failures.append(("key", i))
                if shared.evaluate_layer(configs[i], mappings[j], "gemm") != expected[i, j]:
                    failures.append(("result", i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert _queries(shared) == 6 * rounds == shared.num_queries
