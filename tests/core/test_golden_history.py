"""Golden history: fixed co-search cells must reproduce exactly.

Hot-path optimizations of the co-search are required to be exact (same
RNG stream, same floats, same query count).  Each cell pins the outputs of
one UNICO run so a change that perturbs them fails here, not only in the
benchmark.  The resnet/edge values were recorded before the inner-loop
fast paths (memoized search bookkeeping, inline layer draw, direct LAPACK
solve) landed; the resnet/ascend values before the cycle-accurate
pipeline recurrence was rewritten.  Neither must ever need updating for a
pure speed change.
"""

import hashlib

from repro.experiments.harness import run_method
from repro.hw.ascend import AscendHWConfig
from repro.hw.spatial import SpatialHWConfig

GOLDEN_SEED = 7
GOLDEN_TOTAL_TIME_S = 3140.0
GOLDEN_ENGINE_QUERIES = 2020
GOLDEN_DESIGN_HW = SpatialHWConfig(
    pe_x=15, pe_y=2, l1_bytes=384, l2_kb=16, noc_bw=64, dataflow="os",
    l1_banks=2, l2_banks=2,
)
GOLDEN_DESIGN_PPA = [0.16154923999999998, 0.035444188489639, 0.519041]
#: sha256 of ``repr(result.pareto.points.tolist())`` (15 points)
GOLDEN_FRONT_SHA256 = (
    "f407f97e547bd005ede5ea9fd68478f84c6531526538cc769dd8bba9197905c9"
)


def test_resnet_edge_unico_bench_cell_is_unchanged():
    result = run_method("unico", "edge", "resnet", "bench", seed=GOLDEN_SEED)
    assert result.total_time_s == GOLDEN_TOTAL_TIME_S
    assert result.total_engine_queries == GOLDEN_ENGINE_QUERIES
    design = result.best_design()
    assert design.hw == GOLDEN_DESIGN_HW
    assert design.ppa_vector.tolist() == GOLDEN_DESIGN_PPA
    points = result.pareto.points
    assert points.shape == (15, 3)
    digest = hashlib.sha256(repr(points.tolist()).encode()).hexdigest()
    assert digest == GOLDEN_FRONT_SHA256


ASCEND_SEED = 7
ASCEND_TOTAL_TIME_S = 9670.0
ASCEND_ENGINE_QUERIES = 759
ASCEND_DESIGN_HW = AscendHWConfig(
    l0a_kb=512, l0b_kb=384, l0c_kb=64, l1_kb=512, ub_kb=384, pb_kb=128,
    icache_kb=16, l0a_banks=2, l0b_banks=2, l0c_banks=2,
    cube_m=8, cube_k=8, cube_n=16,
)
ASCEND_DESIGN_PPA = [0.008522689737013301, 0.3895528648933681, 5.40168]
#: sha256 of ``repr(result.pareto.points.tolist())`` (5 points)
ASCEND_FRONT_SHA256 = (
    "d57941afa7e1c6c6870a9526b3c8b12c4b5b40aee068a7c73ef6f9c832b4e418"
)


def test_resnet_ascend_unico_smoke_cell_is_unchanged():
    """Cycle-accurate engine with the harness's 8% noise channel on."""
    result = run_method("unico", "ascend", "resnet", "smoke", seed=ASCEND_SEED)
    assert result.total_time_s == ASCEND_TOTAL_TIME_S
    assert result.total_engine_queries == ASCEND_ENGINE_QUERIES
    design = result.best_design()
    assert design.hw == ASCEND_DESIGN_HW
    assert design.ppa_vector.tolist() == ASCEND_DESIGN_PPA
    points = result.pareto.points
    assert points.shape == (5, 3)
    digest = hashlib.sha256(repr(points.tolist()).encode()).hexdigest()
    assert digest == ASCEND_FRONT_SHA256
