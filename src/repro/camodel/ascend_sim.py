"""Cycle-level simulator of the Ascend-like core's tile pipeline.

The DaVinci-style execution of one GEMM-lowered operator is a six-stage
pipeline over (m, n, k) tiles, k innermost so the accumulator completes in
L0C before the vector/writeback stages fire:

    scalar issue -> DMA in (DDR->L1) -> MTE (L1->L0A/L0B)
                 -> cube (m x k x n MACs/cycle) -> vector (L0C->UB)
                 -> DMA out (UB->DDR)

Bank groups on L0A/L0B/L0C determine how deeply consecutive tiles overlap
(double/quadruple buffering); a single bank serializes producer and
consumer.  The simulator runs the exact start/finish recurrence tile by
tile — this is what makes it "cycle accurate" — and extrapolates the
steady-state rate when an operator has more tiles than
``MAX_SIMULATED_TILES``.  On the host a call costs ~160 µs, about eight
scalar analytical-model calls (~19.5 µs), measured over traced
co-search passes on a 2-vCPU VM; the simulated clock charges it 30 s.

ICache and parameter-buffer sizing surface as scalar-issue overhead: cores
whose instruction/parameter working set overflows those buffers pay a
per-tile stall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.camodel.mapping import AscendMapping
from repro.costmodel.results import LayerPPA
from repro.costmodel.technology import DEFAULT_TECHNOLOGY, Technology
from repro.hw.ascend import AscendHWConfig
from repro.utils.intmath import round_up_div
from repro.workloads.layers import GemmShape

#: L1 -> L0 transfer bandwidth, bytes/cycle
_L1_BW = 128.0
#: vector unit throughput, output elements/cycle
_VECTOR_THROUGHPUT = 64.0
#: base scalar instructions issued per tile
_SCALAR_BASE_CYCLES = 64.0
#: cube MAC area (mm^2 per MAC) and per-MAC energy reuse from Technology
_CUBE_MAC_AREA_MM2 = 0.002

MAX_SIMULATED_TILES = 2048

_STAGE_NAMES = ("scalar", "dma_in", "mte", "cube", "vector", "dma_out")


def ascend_area_mm2(
    hw: AscendHWConfig, tech: Technology = DEFAULT_TECHNOLOGY
) -> float:
    """Silicon area of an Ascend-like configuration."""
    sram_kb = float(hw.total_sram_kb)
    bank_overhead = (
        tech.bank_area_overhead
        * (hw.l0a_banks + hw.l0b_banks + hw.l0c_banks - 3)
        * (hw.l0a_kb + hw.l0b_kb + hw.l0c_kb)
        / max(sram_kb, 1.0)
    )
    sram_area = tech.sram_area_mm2_per_kb * sram_kb * (1.0 + bank_overhead)
    cube_area = _CUBE_MAC_AREA_MM2 * hw.cube_macs_per_cycle
    vector_area = 0.5  # fixed vector/scalar pipeline complex
    return tech.base_area_mm2 + sram_area + cube_area + vector_area


@dataclass(frozen=True)
class _TileCosts:
    """Per-tile stage durations in cycles."""

    scalar: float
    dma_in: float
    mte: float
    cube: float
    vector: float
    dma_out: float

    def as_list(self) -> List[float]:
        return [self.scalar, self.dma_in, self.mte, self.cube, self.vector, self.dma_out]


def _capacity_check(
    hw: AscendHWConfig, mapping: AscendMapping, tech: Technology
) -> Tuple[bool, str]:
    """Validate tile working sets against every buffer level."""
    tm, tn, tk = mapping.tiles()
    op_b = tech.operand_bytes
    acc_b = tech.accum_bytes
    l0a_slot = hw.l0a_kb * 1024 / hw.l0a_banks
    l0b_slot = hw.l0b_kb * 1024 / hw.l0b_banks
    l0c_slot = hw.l0c_kb * 1024 / hw.l0c_banks
    if tm * tk * op_b > l0a_slot:
        return False, f"L0A overflow: tile {tm}x{tk} > {l0a_slot:.0f} B/bank"
    if tk * tn * op_b > l0b_slot:
        return False, f"L0B overflow: tile {tk}x{tn} > {l0b_slot:.0f} B/bank"
    if tm * tn * acc_b > l0c_slot:
        return False, f"L0C overflow: tile {tm}x{tn} acc > {l0c_slot:.0f} B/bank"
    l1_need = 2 * (tm * tk + tk * tn) * op_b
    if mapping.fuse_output:
        l1_need += tm * tn * op_b  # intermediate tile stays resident
    if l1_need > hw.l1_kb * 1024:
        return False, f"L1 overflow: need {l1_need} B, have {hw.l1_kb * 1024} B"
    if 2 * tm * tn * acc_b > hw.ub_kb * 1024:
        return False, f"UB overflow: {2 * tm * tn * acc_b} B > {hw.ub_kb * 1024} B"
    return True, ""


def _tile_costs(
    hw: AscendHWConfig,
    mapping: AscendMapping,
    shape: GemmShape,
    tech: Technology,
) -> _TileCosts:
    tm, tn, tk = mapping.tiles()
    op_b = tech.operand_bytes
    ddr_bw = tech.dram_bw_bytes_per_cycle
    a_bytes = tm * tk * op_b
    b_bytes = tk * tn * op_b
    dma_in = (0.0 if mapping.fuse_input else a_bytes / ddr_bw) + b_bytes / ddr_bw
    mte = (a_bytes + b_bytes) / _L1_BW
    cube = (
        round_up_div(tm, hw.cube_m)
        * round_up_div(tk, hw.cube_k)
        * round_up_div(tn, hw.cube_n)
    )
    # reduce-penalty workloads (depthwise) under-fill the cube reduction axis
    cube = cube / shape.reuse_penalty if shape.reuse_penalty < 1.0 else float(cube)
    vector = tm * tn / _VECTOR_THROUGHPUT
    dma_out = 0.0 if mapping.fuse_output else tm * tn * op_b / ddr_bw
    icache_factor = 1.0 + 0.5 * max(0.0, 1.0 - hw.icache_kb / 32.0)
    pb_factor = 1.0 + 0.3 * max(0.0, 1.0 - hw.pb_kb / 64.0)
    scalar = _SCALAR_BASE_CYCLES * icache_factor * pb_factor
    return _TileCosts(scalar, dma_in, mte, cube, vector, dma_out)


def _pipeline_geometry(
    hw: AscendHWConfig, mapping: AscendMapping, shape: GemmShape
) -> Tuple[int, int, int, Tuple[int, int, int, int, int]]:
    """``(trips_m, trips_n, trips_k, banks)`` of one operator's tile pipeline.

    ``banks[s]`` is the buffer depth between stage ``s`` and ``s+1``.
    """
    tm, tn, tk = mapping.tiles()
    banks = (
        1,  # scalar -> dma_in (instruction queue)
        2,  # dma_in -> mte (L1 is double buffered)
        min(hw.l0a_banks, hw.l0b_banks),
        hw.l0c_banks,
        2,  # vector -> dma_out (UB double buffered)
    )
    return (
        round_up_div(shape.m, tm),
        round_up_div(shape.n, tn),
        round_up_div(shape.k, tk),
        banks,
    )


def _pipeline_cycles(
    costs: _TileCosts,
    n_tiles: int,
    trips_k: int,
    banks: Tuple[int, int, int, int, int],
) -> float:
    """Exact pipeline recurrence over tiles with bank-limited overlap.

    ``banks[s]`` is the buffer depth between stage ``s`` and ``s+1``; a
    stage may start tile ``t`` only after its consumer freed slot
    ``t - banks[s]``.  Vector and DMA-out stages fire only on reduction
    completion (every ``trips_k``-th tile).

    A stage starts tile ``t`` at the max of its producer's finish on
    ``t``, its own finish on ``t - 1`` and its consumer's finish on
    ``t - banks[s]``.  The loop is unrolled over the six stages and
    returns the same float as the plain recurrence in
    :func:`repro.camodel.trace.trace_pipeline` for every input: a max
    returns one of its operands unchanged in any evaluation order, so the
    only rounding is the one ``start + duration`` per stage and tile, and
    the zero vector/DMA-out duration between k-completions is skipped
    since ``x + 0.0 == x`` for ``x >= 0``.  Finish times are >= 0, so each
    consumer history is front-padded with ``banks[s]`` zeros in place of
    a ``t - banks[s] >= 0`` guard.
    """
    d0, d1, d2, d3, d4, d5 = costs.as_list()
    b0, b1, b2, b3, b4 = banks
    simulate = min(n_tiles, MAX_SIMULATED_TILES)
    # finish times of stages 1..5; hN[t] is stage N's finish on t - banks[N-1]
    h1, h2, h3, h4, h5 = [0.0] * b0, [0.0] * b1, [0.0] * b2, [0.0] * b3, [0.0] * b4
    push1, push2, push3, push4, push5 = (
        h1.append, h2.append, h3.append, h4.append, h5.append
    )
    f0 = f1 = f2 = f3 = f4 = f5 = 0.0  # each stage's finish on the last tile
    k_left = trips_k  # tiles until the next k-completion
    for t in range(simulate):
        x = h1[t]
        if x > f0:
            f0 = x
        f0 += d0
        if f0 > f1:
            f1 = f0
        x = h2[t]
        if x > f1:
            f1 = x
        f1 += d1
        push1(f1)
        if f1 > f2:
            f2 = f1
        x = h3[t]
        if x > f2:
            f2 = x
        f2 += d2
        push2(f2)
        if f2 > f3:
            f3 = f2
        x = h4[t]
        if x > f3:
            f3 = x
        f3 += d3
        push3(f3)
        if f3 > f4:
            f4 = f3
        x = h5[t]
        if x > f4:
            f4 = x
        k_left -= 1
        if k_left:
            if f4 > f5:
                f5 = f4
        else:  # vector / dma_out fire only on k-completion
            k_left = trips_k
            f4 += d4
            if f4 > f5:
                f5 = f4
            f5 += d5
        push4(f4)
        push5(f5)
    total = f5
    if n_tiles > simulate:
        # steady-state extrapolation from the back half of the window
        half = simulate // 2
        rate = (f5 - h5[b4 + half - 1]) / (simulate - half)
        total += (n_tiles - simulate) * rate
    return total


def simulate_layer(
    hw: AscendHWConfig,
    mapping: AscendMapping,
    shape: GemmShape,
    tech: Technology = DEFAULT_TECHNOLOGY,
) -> LayerPPA:
    """Cycle-level PPA of one GEMM-lowered operator under ``mapping``."""
    ok, reason = _capacity_check(hw, mapping, tech)
    if not ok:
        return LayerPPA(
            latency_s=float("inf"),
            energy_j=float("inf"),
            feasible=False,
            infeasible_reason=reason,
        )
    trips_m, trips_n, trips_k, banks = _pipeline_geometry(hw, mapping, shape)
    n_tiles = trips_m * trips_n * trips_k
    costs = _tile_costs(hw, mapping, shape, tech)
    cycles = _pipeline_cycles(costs, n_tiles, trips_k, banks)
    latency_s = cycles / tech.frequency_hz

    op_b = tech.operand_bytes
    acc_b = tech.accum_bytes
    ddr_bytes = (
        (0 if mapping.fuse_input else shape.m * shape.k * trips_n * op_b / shape.reuse_penalty)
        + shape.k * shape.n * trips_m * op_b / shape.reuse_penalty
        + (0 if mapping.fuse_output else shape.m * shape.n * op_b)
    )
    l1_bytes_moved = (shape.m * shape.k * trips_n + shape.k * shape.n * trips_m) * op_b
    l0_bytes_moved = 2.0 * shape.macs * op_b / 8.0  # operand reads, cube-level reuse
    energy_j = (
        shape.macs * tech.mac_energy_j
        + l0_bytes_moved * tech.reg_energy_per_byte_j
        + l1_bytes_moved * tech.l1_energy_per_byte(hw.l1_kb * 1024)
        + shape.m * shape.n * acc_b * tech.l2_energy_per_byte(hw.l0c_kb * 1024)
        + ddr_bytes * tech.dram_energy_per_byte_j
    )
    return LayerPPA(
        latency_s=latency_s,
        energy_j=energy_j,
        feasible=True,
        compute_cycles=float(n_tiles) * costs.cube,
        noc_cycles=float(n_tiles) * costs.mte,
        dram_cycles=float(n_tiles) * costs.dma_in,
        dram_bytes=float(ddr_bytes),
    )
