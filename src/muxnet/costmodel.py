"""Closed-form cost accounting: memory, MUX activity, cycles, gating.

Everything here is a pure function of shapes and configuration.  The one
per-call formula, ``datapath_cost``, is what ``predict_model_costs`` reports
per layer and what the vectorized datapath adds to its live counters on
every call; it depends on its ints alone, so it is memoized.  ``mpu`` and
``engine`` import this module, never the reverse.  The
independent count is the scalar path, ``mpu.bitserial_inner_product``,
which counts select by select; tests hold it to this formula.  Energy is
abstract unit costs with user-supplied coefficients; silicon figures are
out of scope.

Cycle accounting conventions (data-independent by construction):

* one stage-1 selection per weight chunk per task, counting 2**n MUX
  selects and reading n*m bits of weight memory (a decomposed mode selects
  both halves: twice the MUX selects, same total bits);
* one stage-2 selection (1 MUX select) and one adder op per chunk slot per
  bit-plane, padded slots included;
* a task is one group-vector inner product and occupies one group for
  ``activation_bits`` cycles; concurrent tasks share cycles across
  ``groups`` group units;
* tiling pads the last task of each row with idle slots, which toggle
  their MUXs but read no weight memory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Sequence

from .compiler import CompiledModel
from .static_table import check_mode


def memory_cost(n: int, m: int, num_chunks: int = 1) -> tuple[int, int]:
    """(muxnet_bits, lut_bits) for num_chunks weight chunks of n m-bit codes.

    A lookup-table design stores every chunk's 2**n precomputed sums (m bits
    each) next to the codes; the table-resident design stores only the codes
    and shares one static table across all chunks.
    """
    if n < 1 or m < 1 or num_chunks < 1:
        raise ValueError(f"need n, m, num_chunks >= 1, got ({n}, {m}, {num_chunks})")
    muxnet_bits = num_chunks * m * n
    lut_bits = num_chunks * (m * (1 << n) + m * n)
    return muxnet_bits, lut_bits


@dataclass(frozen=True)
class DecompositionCost:
    monolithic_entries: int
    decomposed_entries: int
    ratio: float


def decomposition_cost(n: int, m: int) -> DecompositionCost:
    """Entry counts of one width-m table vs its two half-width tables.

    Raises what ``check_mode(n, m, decomposed=True)`` raises for a split
    the table builders refuse.
    """
    check_mode(n, m, decomposed=True)
    mono, dec = _table_entries(n, m, False), _table_entries(n, m, True)
    return DecompositionCost(mono, dec, mono / dec)


def _table_entries(n: int, m: int, decomposed: bool) -> int:
    """Entries of one mode's static table, or of its two half-width tables."""
    if decomposed:
        return 2 * _table_entries(n, m // 2, False)
    return (1 << (n * m)) * (1 << n)


# ---------------------------------------------------------------------------
# counter prediction from shapes


@dataclass
class LayerCost:
    index: int
    kind: str
    n: int
    mode_m: int
    decomposed: bool
    out_channels: int
    chunks: int
    cases: int  # inner-product rows executed (batch * time positions)
    weight_bits: int
    lut_bits: int
    cycles: int
    mux_selects: int
    memory_bits_read: int
    adder_ops: int


@lru_cache(maxsize=256)  # a call's cost depends on its ints only; an engine makes a few shapes
def datapath_cost(*, n: int, m: int, decomposed: bool, outputs: int, chunks: int, cases: int,
                  groups: int, group_vector_len: int, activation_bits: int) -> tuple[int, int, int, int]:
    """(cycles, mux_selects, memory_bits_read, adder_ops) of one datapath call
    computing ``outputs`` inner products of ``chunks`` chunks per input row."""
    cpt = group_vector_len // n
    tiles = math.ceil(chunks / cpt)
    tasks = cases * outputs * tiles
    slots = tasks * cpt * (2 if decomposed else 1)  # chunk selections per plane
    return (
        math.ceil(tasks / groups) * activation_bits,
        slots * ((1 << n) + activation_bits),  # stage 1, then stage 2 per plane
        cases * outputs * chunks * n * m,
        slots * activation_bits,
    )


def predict_model_costs(
    model: CompiledModel,
    groups: int = 8,
    group_vector_len: int = 8,
    batch: int = 1,
) -> list[LayerCost]:
    """Per-layer predicted costs for ``batch`` independent input samples."""
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    rows = []
    for li, (layer, (_, length)) in enumerate(zip(model.layers, model.shapes())):
        cases = batch * length  # one row per output position; 1 for linear
        rows.append(LayerCost(
            li, layer.kind, model.n, layer.mode_m, layer.decomposed, layer.out_channels,
            layer.chunks, cases,
            *memory_cost(model.n, layer.mode_m, layer.out_channels * layer.chunks),
            *datapath_cost(n=model.n, m=layer.mode_m, decomposed=layer.decomposed,
                           outputs=layer.out_channels, chunks=layer.chunks, cases=cases,
                           groups=groups, group_vector_len=group_vector_len,
                           activation_bits=layer.activation_bits),
        ))
    return rows


def table_entry_count(model: CompiledModel) -> int:
    """Entries of the static tables the engine instantiates (one per mode)."""
    modes = {(layer.mode_m, layer.decomposed) for layer in model.layers}
    return sum(_table_entries(model.n, m, decomposed) for m, decomposed in modes)


# ---------------------------------------------------------------------------
# block power gating


@dataclass
class GatingReport:
    blocks: int
    block_bits: int
    capacity_bits: int
    active_block_cycles: list[int]
    total_cycles: int
    saved_fraction: float


def gating_report(
    layer_bits: Sequence[int],
    layer_cycles: Sequence[int],
    blocks: int = 6,
    capacity_bits: int | None = None,
) -> GatingReport:
    """Activity of equal contiguous address-range blocks of weight memory.

    Layers occupy consecutive address ranges.  While a layer is running,
    exactly the blocks overlapping its range are powered; the rest are
    gated off.  saved = 1 - active_block_cycles / (blocks * cycles).
    """
    if len(layer_bits) != len(layer_cycles):
        raise ValueError("layer_bits and layer_cycles must align")
    if blocks < 1:
        raise ValueError("need at least one block")
    total_bits = sum(layer_bits)
    capacity = total_bits if capacity_bits is None else capacity_bits
    if capacity < total_bits:
        raise ValueError(f"capacity {capacity} cannot hold {total_bits} bits of weights")
    block_bits = math.ceil(capacity / blocks) if capacity else 1
    active = [0] * blocks
    start = 0
    for bits, cycles in zip(layer_bits, layer_cycles):
        if bits:  # a layer of no bits overlaps no block
            for b in range(start // block_bits, (start + bits - 1) // block_bits + 1):
                active[b] += cycles
        start += bits
    total_cycles = sum(layer_cycles)
    denom = blocks * total_cycles
    saved = 1.0 - sum(active) / denom if denom else 0.0
    return GatingReport(
        blocks=blocks,
        block_bits=block_bits,
        capacity_bits=capacity,
        active_block_cycles=active,
        total_cycles=total_cycles,
        saved_fraction=saved,
    )


# ---------------------------------------------------------------------------
# whole-model report


@dataclass(frozen=True)
class EnergyCoefficients:
    """Abstract unit costs; physical calibration is the user's problem."""

    per_mux_select: float = 1.0
    per_memory_bit: float = 1.0
    per_adder_op: float = 1.0


@dataclass
class CostReport:
    layers: list[LayerCost]
    weight_memory_bits: int
    lut_memory_bits: int
    table_entries: int
    mux_count: int
    mux_selects: int
    cycles: int
    memory_bits_read: int
    adder_ops: int
    gating: GatingReport

    def energy(self, coeffs: EnergyCoefficients = EnergyCoefficients()) -> float:
        return (coeffs.per_mux_select * self.mux_selects
                + coeffs.per_memory_bit * self.memory_bits_read
                + coeffs.per_adder_op * self.adder_ops)


def model_cost_report(
    model: CompiledModel,
    groups: int = 8,
    group_vector_len: int = 8,
    batch: int = 1,
    blocks: int = 6,
    capacity_bits: int | None = None,
) -> CostReport:
    rows = predict_model_costs(model, groups, group_vector_len, batch)
    gating = gating_report(
        [r.weight_bits for r in rows], [r.cycles for r in rows],
        blocks=blocks, capacity_bits=capacity_bits,
    )
    return CostReport(
        layers=rows,
        weight_memory_bits=sum(r.weight_bits for r in rows),
        lut_memory_bits=sum(r.lut_bits for r in rows),
        table_entries=table_entry_count(model),
        mux_count=groups * group_vector_len // model.n,
        mux_selects=sum(r.mux_selects for r in rows),
        cycles=sum(r.cycles for r in rows),
        memory_bits_read=sum(r.memory_bits_read for r in rows),
        adder_ops=sum(r.adder_ops for r in rows),
        gating=gating,
    )


def write_cost_csv(report: CostReport, stream: IO[str]) -> None:
    """One row per layer plus a totals row."""
    writer = csv.writer(stream)
    writer.writerow([
        "layer", "kind", "n", "m", "decomposed", "out_channels", "chunks",
        "weight_bits", "lut_bits", "cycles", "mux_selects",
        "memory_bits_read", "adder_ops",
    ])
    for r in report.layers:
        writer.writerow([
            r.index, r.kind, r.n, r.mode_m, int(r.decomposed), r.out_channels,
            r.chunks, r.weight_bits, r.lut_bits, r.cycles, r.mux_selects,
            r.memory_bits_read, r.adder_ops,
        ])
    writer.writerow([
        "total", "", "", "", "", "", "",
        report.weight_memory_bits, report.lut_memory_bits, report.cycles,
        report.mux_selects, report.memory_bits_read, report.adder_ops,
    ])
