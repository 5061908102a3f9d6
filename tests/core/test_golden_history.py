"""Golden history: one fixed co-search cell must reproduce exactly.

Hot-path optimizations of the co-search are required to be exact (same
RNG stream, same floats, same query count).  This cell pins the outputs of
one bench-preset UNICO run so a change that perturbs them fails here,
not only in the benchmark.  The values were recorded before the inner-loop
fast paths (memoized search bookkeeping, inline layer draw, direct LAPACK
solve) landed and must never need updating for a pure speed change.
"""

import hashlib

from repro.experiments.harness import run_method
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
