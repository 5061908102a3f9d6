"""Tests for the CA-model pipeline trace / bottleneck analysis."""

import random

import pytest

from repro.camodel.ascend_sim import (
    MAX_SIMULATED_TILES,
    _pipeline_cycles,
    _pipeline_geometry,
    _tile_costs,
    _TileCosts,
    simulate_layer,
)
from repro.camodel.mapping import AscendMapping
from repro.camodel.trace import (
    PipelineTrace,
    explain_layer,
    trace_layer,
    trace_pipeline,
)
from repro.costmodel.technology import DEFAULT_TECHNOLOGY
from repro.errors import EvaluationError
from repro.hw import default_ascend_config
from repro.workloads.layers import GemmShape

SHAPE = GemmShape(m=64, n=1024, k=128)
MAPPING = AscendMapping(tile_m=32, tile_n=128, tile_k=64)
#: 32 x 32 x 8 = 8192 tiles with MAPPING: past the simulated window
LONG_SHAPE = GemmShape(m=1024, n=4096, k=512)


def _oracle_cycles(costs, n_tiles, trips_k, banks):
    """The plain recurrence plus the simulator's steady-state extrapolation.

    The recurrence is causal, so the window's value at the half-window
    tile is the total of a window of ``half`` tiles.
    """
    total = trace_pipeline(costs, n_tiles, trips_k, banks).total_cycles
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    if n_tiles > simulate:
        half = simulate // 2
        half_total = trace_pipeline(costs, half, trips_k, banks).total_cycles
        rate = (total - half_total) / (simulate - half)
        total += (n_tiles - simulate) * rate
    return total


class TestTraceLayer:
    @staticmethod
    def _oracle_latency(hw, shape):
        trips_m, trips_n, trips_k, banks = _pipeline_geometry(hw, MAPPING, shape)
        costs = _tile_costs(hw, MAPPING, shape, DEFAULT_TECHNOLOGY)
        cycles = _oracle_cycles(costs, trips_m * trips_n * trips_k, trips_k, banks)
        return cycles / DEFAULT_TECHNOLOGY.frequency_hz

    def test_trace_matches_simulator_latency(self):
        hw = default_ascend_config()
        trace = trace_layer(hw, MAPPING, SHAPE)
        sim = simulate_layer(hw, MAPPING, SHAPE)
        assert trace.n_tiles <= trace.simulated_tiles
        assert sim.latency_s == trace.total_cycles / DEFAULT_TECHNOLOGY.frequency_hz
        assert sim.latency_s == self._oracle_latency(hw, SHAPE)

    def test_simulator_latency_past_the_window(self):
        hw = default_ascend_config()
        trace = trace_layer(hw, MAPPING, LONG_SHAPE)
        assert trace.n_tiles > trace.simulated_tiles == MAX_SIMULATED_TILES
        sim = simulate_layer(hw, MAPPING, LONG_SHAPE)
        assert sim.latency_s == self._oracle_latency(hw, LONG_SHAPE)

    def test_stage_names(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        names = [stage.name for stage in trace.stages]
        assert names == ["scalar", "dma_in", "mte", "cube", "vector", "dma_out"]

    def test_utilizations_bounded(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        for stage in trace.stages:
            assert 0.0 <= stage.utilization <= 1.0 + 1e-9
            assert stage.stall_cycles >= 0.0

    def test_bottleneck_is_max_utilization(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        assert trace.bottleneck.utilization == max(
            stage.utilization for stage in trace.stages
        )

    def test_compute_bound_case_has_cube_bottleneck(self):
        """A tall fused tile amortizes operand loads: cube-bound.

        Per tile, cube cycles / DMA cycles ~ tile_m / 128 for the default
        16^3 cube at 32 B/cy DDR, so tile_m = 256 is compute-bound.
        """
        hw = default_ascend_config()
        mapping = AscendMapping(
            tile_m=256, tile_n=128, tile_k=128, fuse_input=True, fuse_output=True
        )
        trace = trace_layer(hw, mapping, GemmShape(m=256, n=1024, k=2048))
        assert trace.bottleneck.name == "cube"

    def test_bandwidth_bound_case_has_dma_bottleneck(self):
        """A tiny cube makes compute cheap; skinny operands load-bound."""
        hw = default_ascend_config().with_updates(cube_m=32, cube_k=32, cube_n=32)
        mapping = AscendMapping(tile_m=32, tile_n=32, tile_k=32)
        trace = trace_layer(hw, mapping, GemmShape(m=32, n=8192, k=32))
        assert trace.bottleneck.name in ("dma_in", "dma_out", "scalar")

    def test_infeasible_raises(self):
        hw = default_ascend_config().with_updates(l0a_kb=1)
        with pytest.raises(EvaluationError):
            trace_layer(hw, MAPPING, SHAPE)

    def test_stage_lookup(self):
        trace = trace_layer(default_ascend_config(), MAPPING, SHAPE)
        assert trace.stage("cube").name == "cube"
        with pytest.raises(EvaluationError):
            trace.stage("tensor-core")


class TestExplainLayer:
    def test_report_mentions_bottleneck(self):
        report = explain_layer(default_ascend_config(), MAPPING, SHAPE)
        assert "bottleneck:" in report
        assert "util" in report
        assert "tiles:" in report


def _random_duration(rng):
    draw = rng.random()
    if draw < 0.15:
        return 0.0
    if draw < 0.35:
        return rng.randint(0, 300)
    return rng.uniform(0.0, 400.0) * rng.choice((1.0, 1e-3, 0.1, 1e3))


class TestPipelineParity:
    """The unrolled fast path equals the plain recurrence bit for bit."""

    EDGE_TILES = (1, 2, 5, MAX_SIMULATED_TILES - 1, MAX_SIMULATED_TILES,
                  MAX_SIMULATED_TILES + 1)

    @staticmethod
    def _assert_bit_equal(costs, n_tiles, trips_k, banks):
        fast = _pipeline_cycles(costs, n_tiles, trips_k, banks)
        oracle = _oracle_cycles(costs, n_tiles, trips_k, banks)
        assert isinstance(fast, float)
        assert fast.hex() == oracle.hex(), (costs, n_tiles, trips_k, banks)

    def test_random_inputs(self):
        rng = random.Random(2023)
        for case in range(120):
            costs = _TileCosts(*(_random_duration(rng) for _ in range(6)))
            banks = tuple(rng.randint(1, 5) for _ in range(5))
            trips_k = rng.choice((1, 2, 3, rng.randint(1, 64), rng.randint(1, 5000)))
            if case % 3 == 0:
                n_tiles = rng.randint(MAX_SIMULATED_TILES + 1, 400_000)
            else:
                n_tiles = rng.randint(1, 600)
            self._assert_bit_equal(costs, n_tiles, trips_k, banks)

    @pytest.mark.parametrize("n_tiles", EDGE_TILES)
    def test_window_edges(self, n_tiles):
        rng = random.Random(n_tiles)
        for trips_k in (1, 3, n_tiles, n_tiles + 1):
            costs = _TileCosts(*(_random_duration(rng) for _ in range(6)))
            banks = tuple(rng.randint(1, 5) for _ in range(5))
            self._assert_bit_equal(costs, n_tiles, trips_k, banks)

    def test_integer_durations(self):
        costs = _TileCosts(64, 33, 96, 128, 64, 0)
        for banks in ((1, 1, 1, 1, 1), (1, 2, 2, 2, 2), (5, 4, 3, 2, 1)):
            self._assert_bit_equal(costs, 3000, 4, banks)
