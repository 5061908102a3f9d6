"""The inner loop's exact fast paths: one weighted layer draw, one
incumbent writer, and incumbent memos that always equal a recomputation."""

import numpy as np
import pytest

from repro.camodel import AscendCAEngine
from repro.costmodel import MaestroEngine
from repro.hw import default_ascend_config
from repro.learned.oneloop import OneLoopMappingSearch
from repro.mapping import (
    AnytimeMappingSearch,
    CosaMapper,
    DepthFirstFusionSearch,
    FlexTensorSearch,
    GammaSearch,
    RandomMappingSearch,
)
from repro.mapping.exhaustive import optimal_network_mapping
from repro.workloads import Gemm, Network, get_network


class TestWeightedDraw:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_generator_choice(self, seed):
        draws = np.random.default_rng(seed)
        size = int(draws.integers(1, 40))
        weights = np.exp(draws.normal(0.0, 4.0, size))
        if seed % 4 == 0:
            weights[int(draws.integers(0, size))] = 0.0
        ours = np.random.default_rng(1000 + seed)
        reference = np.random.default_rng(1000 + seed)
        for _ in range(25):
            index = AnytimeMappingSearch._weighted_draw(ours, weights)
            expected = reference.choice(size, p=weights / weights.sum())
            assert index == int(expected)
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "weights",
        [[0.0, 0.0], [1.0, np.inf], [np.nan, 1.0], [-1.0, 0.5]],
    )
    def test_degenerate_weights_draw_nothing(self, weights):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert AnytimeMappingSearch._weighted_draw(rng, np.array(weights)) is None
        assert rng.bit_generator.state == state


def _micro_network():
    return Network(
        name="micro",
        layers=(
            Gemm(name="a", m=8, n=8, k=4),
            Gemm(name="b", m=4, n=8, k=8, count=3),
        ),
        family="test",
    )


def _assert_memos_fresh(search):
    """Memoized incumbent views equal a recomputation, bit for bit."""
    assert search._totals_memo is not None  # every fold ends warm
    assert search._totals_memo == search._recompute_network_totals()
    assert search._network_totals() == search._recompute_network_totals()
    if search._shares_memo is not None:
        assert np.array_equal(
            search._shares_memo, search._recompute_latency_shares()
        )


def _check_every_fold(search, budget):
    fold = search._fold_result
    folds = []

    def checked(*args):
        fold(*args)
        _assert_memos_fresh(search)
        folds.append(1)

    search._fold_result = checked
    search.run(budget)
    assert len(folds) == budget


def _gemm_search(tool, network, hw, **kwargs):
    return tool(network, hw, MaestroEngine(network), seed=3, **kwargs)


class TestIncumbentMemo:
    @pytest.mark.parametrize(
        "tool", [FlexTensorSearch, GammaSearch, CosaMapper, RandomMappingSearch,
                 OneLoopMappingSearch],
    )
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_gemm_tools(self, tool, batch_size, tiny_network, sample_hw):
        search = _gemm_search(tool, tiny_network, sample_hw, batch_size=batch_size)
        _check_every_fold(search, 60)

    def test_fusion(self):
        network = get_network("fsrcnn_120x320")
        search = DepthFirstFusionSearch(
            network, default_ascend_config(), AscendCAEngine(network), seed=9
        )
        _check_every_fold(search, 40)

    def test_exhaustive_optimum_adopted(self, sample_hw):
        """Incumbents written from the exhaustive optimum refresh the memos."""
        network = _micro_network()
        engine = MaestroEngine(network)
        search = RandomMappingSearch(network, sample_hw, engine, seed=0)
        search.run(5)
        optimum, details = optimal_network_mapping(engine, sample_hw)
        for layer_name, mapping in optimum.items():
            search._network_totals()  # warm both memos before each write
            search._latency_shares()
            search._set_incumbent(layer_name, mapping, details[layer_name].result)
            assert search._totals_memo is None and search._shares_memo is None
            assert search.best_layer_mapping[layer_name] == mapping
            assert search._network_totals() == search._recompute_network_totals()
            assert np.array_equal(
                search._latency_shares(), search._recompute_latency_shares()
            )
        _check_every_fold(search, 20)
