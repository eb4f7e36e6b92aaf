"""Two-stage MUX processing unit: bit-exact, cycle-accounted inner products.

Stage 1 selects a static-table line by the weight line index; stage 2
selects one subset sum per activation bit-plane (LSB first), so a 2**n-to-1
selector is all the per-bit datapath needs.  The parallel post-lookup
merging unit (PLMU) shifts each bit-plane partial into place and
accumulates; for two's-complement activations the MSB plane is subtracted.
The result equals the direct multiply-accumulate exactly: no saturation
anywhere, widths are provisioned so overflow cannot occur for in-range
inputs.

Nothing on the value path multiplies: only table gathers, adds, and
shifts.  The vectorized entry points (``batch_inner_product``,
``pe_forward``) are shape checks around one shared kernel that runs the
identical datapath across many cases at once: stage 1 runs once per call
(a decomposed table's hi and lo lines are combined there, once), then
each bit-plane is a single gather from the selected lines.

The scalar path counts its selects one by one as it makes them; the
vectorized entry points add ``costmodel.datapath_cost`` to their counters,
whose module docstring holds the cycle accounting conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .costmodel import datapath_cost
from .errors import AccumulatorOverflow, BadLineIndex, ModeMismatch, ShapeError
from .quantizer import QuantizedWeightVector, activation_range
from .static_table import DecomposedTable, StaticTable, pack_line_index, split_line_index

Tables = StaticTable | DecomposedTable


@dataclass(frozen=True)
class MpuConfig:
    """Shape of the processing engine.

    Defaults are the reference configuration: 8 groups of 8-element inner
    products over n=2 chunks, i.e. 32 stage-2 MUXs busy per bit-plane.
    """

    n: int = 2
    m: int = 5
    groups: int = 8
    group_vector_len: int = 8
    activation_bits: int = 8
    activation_signed: bool = False
    accumulator_bits: int | None = None  # None: provisioned exactly (plmu_width_bound)

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 2:
            raise ValueError(f"need n >= 1 and m >= 2, got n={self.n} m={self.m}")
        if self.group_vector_len % self.n != 0:
            raise ValueError(
                f"group_vector_len {self.group_vector_len} not divisible by n={self.n}"
            )
        if self.groups < 1 or self.activation_bits < 1:
            raise ValueError("groups and activation_bits must be >= 1")

    @property
    def chunks_per_group(self) -> int:
        return self.group_vector_len // self.n

    @property
    def plmu_bits(self) -> int:
        return self.accumulator_bits if self.accumulator_bits is not None else plmu_width_bound(self)


def plmu_width_bound(cfg: MpuConfig) -> int:
    """Accumulator width that can never overflow for in-range inputs."""
    chunk_bits = 0 if cfg.n == 1 else math.ceil(math.log2(cfg.n))
    cpt = cfg.chunks_per_group
    tree_bits = 0 if cpt == 1 else math.ceil(math.log2(cpt))
    return cfg.m + chunk_bits + tree_bits + cfg.activation_bits + 1


@dataclass
class CycleCount:
    """Running cost counters; totals are merged from parts by summation."""

    cycles: int = 0
    mux_selects: int = 0
    memory_bits_read: int = 0

    def merge(self, other: "CycleCount") -> "CycleCount":
        self.cycles += other.cycles
        self.mux_selects += other.mux_selects
        self.memory_bits_read += other.memory_bits_read
        return self

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.cycles, self.mux_selects, self.memory_bits_read)


@dataclass
class PlmuState:
    """Accumulator of the post-lookup merging unit for one task."""

    width: int
    accumulator: int = 0

    def add(self, value: int) -> int:
        acc = self.accumulator + value
        limit = 1 << (self.width - 1)
        if not -limit <= acc < limit:
            raise AccumulatorOverflow(
                f"PLMU accumulator {acc} exceeds declared width {self.width}"
            )
        self.accumulator = acc
        return acc


def stage1_select(table: StaticTable, line_index: int, counters: CycleCount | None = None) -> np.ndarray:
    """Select one table line by weight index; one MUX per key column."""
    if not 0 <= line_index < table.line_count:
        raise BadLineIndex(f"line index {line_index} out of [0, {table.line_count})")
    if counters is not None:
        counters.mux_selects += table.entries_per_line
        counters.memory_bits_read += table.n * table.m
    return table.lines[line_index]


def stage2_select(line: np.ndarray, key: int, counters: CycleCount | None = None) -> int:
    """Select one subset sum from a line; the key is masked to n bits."""
    key &= len(line) - 1
    if counters is not None:
        counters.mux_selects += 1
    return int(line[key])


def _count_call(counters: CycleCount, cfg: MpuConfig, tables: Tables,
                cases: int, outputs: int, chunks: int) -> None:
    """Add one vectorized call's modeled cost to ``counters``."""
    cost = datapath_cost(
        n=cfg.n, m=cfg.m, decomposed=isinstance(tables, DecomposedTable),
        outputs=outputs, chunks=chunks, cases=cases, groups=cfg.groups,
        group_vector_len=cfg.group_vector_len, activation_bits=cfg.activation_bits,
    )
    counters.merge(CycleCount(*cost[:3]))  # adder ops have no live counter


def _check_tables(cfg: MpuConfig, tables: Tables) -> None:
    if tables.n != cfg.n or tables.m != cfg.m:
        raise ModeMismatch(f"tables are (n={tables.n}, m={tables.m}) but config is (n={cfg.n}, m={cfg.m})")


def _select_chunk_lines(
    tables: Tables, line_index: int, counters: CycleCount | None
) -> tuple[np.ndarray, ...]:
    if isinstance(tables, DecomposedTable):
        hi_index, lo_index = split_line_index(line_index, tables.n, tables.m)
        return (
            stage1_select(tables.hi, hi_index, counters),
            stage1_select(tables.lo, lo_index, counters),
        )
    return (stage1_select(tables, line_index, counters),)


def _chunk_entry(tables: Tables, lines: tuple[np.ndarray, ...], key: int, counters: CycleCount | None) -> int:
    if isinstance(tables, DecomposedTable):
        hi_v = stage2_select(lines[0], key, counters)
        lo_v = stage2_select(lines[1], key, counters)
        return (hi_v << tables.shift) + lo_v
    return stage2_select(lines[0], key, counters)


def bitserial_inner_product(
    weights: Sequence[QuantizedWeightVector],
    activations: Sequence[int],
    cfg: MpuConfig,
    tables: Tables,
    counters: CycleCount | None = None,
    trace: IO[str] | None = None,
    group: int = 0,
    start_cycle: int = 0,
) -> int:
    """One group-vector inner product on the scalar (traceable) datapath.

    ``weights`` holds group_vector_len/n weight chunks; the result equals
    sum(code_i * x_i) exactly.  Trace rows are
    ``cycle,group,bitplane,key,selected_entry,accumulator`` with the
    accumulator shown after each chunk's shifted partial is merged.
    """
    _check_tables(cfg, tables)
    cpt = cfg.chunks_per_group
    if len(weights) != cpt:
        raise ShapeError(f"expected {cpt} weight chunks, got {len(weights)}")
    if len(activations) != cfg.group_vector_len:
        raise ShapeError(
            f"expected {cfg.group_vector_len} activations, got {len(activations)}"
        )
    lo, hi = activation_range(cfg.activation_bits, cfg.activation_signed)
    acts = [int(a) for a in activations]
    for a in acts:
        if not lo <= a <= hi:
            raise ValueError(f"activation {a} outside [{lo}, {hi}]")
    for qwv in weights:
        if qwv.n != cfg.n or qwv.m != cfg.m:
            raise ModeMismatch(
                f"weight chunk is (n={qwv.n}, m={qwv.m}) but config is (n={cfg.n}, m={cfg.m})"
            )

    chunk_lines = [
        _select_chunk_lines(tables, pack_line_index(qwv.codes, cfg.m), counters)
        for qwv in weights
    ]
    if counters is not None:
        counters.cycles += cfg.activation_bits

    k = cfg.activation_bits
    bit_fields = [a & ((1 << k) - 1) for a in acts]
    plmu = PlmuState(width=cfg.plmu_bits)
    for b in range(k):
        plane_sum = 0
        for j, lines in enumerate(chunk_lines):
            key = 0
            for i in range(cfg.n):
                key |= ((bit_fields[j * cfg.n + i] >> b) & 1) << i
            entry = _chunk_entry(tables, lines, key, counters)
            plane_sum += entry  # adder tree; integer adds are associative
            if trace is not None:
                partial = plane_sum << b
                shown = plmu.accumulator + (-partial if (cfg.activation_signed and b == k - 1) else partial)
                trace.write(f"{start_cycle + b},{group},{b},{key},{entry},{shown}\n")
        partial = plane_sum << b
        if cfg.activation_signed and b == k - 1:
            partial = -partial  # MSB plane of two's-complement inputs
        plmu.add(partial)
    return plmu.accumulator


def _datapath(idx: np.ndarray, acts: np.ndarray, cfg: MpuConfig, tables: Tables) -> np.ndarray:
    """The vectorized two-stage datapath shared by every batched entry point.

    idx: (..., chunks) line indices; acts: (..., chunks, n) activations.
    The leading axes broadcast against each other, so (outputs, chunks)
    indices against (batch, 1, chunks, n) activations give the layer shape
    and (cases, chunks) against (cases, chunks, n) the case-wise one.
    Stage 1 runs once: ``lines[rows]`` are the selected lines.  Each
    bit-plane is then one stage-2 gather, merged by shift-add.
    """
    if isinstance(tables, DecomposedTable):
        hi_idx, lo_idx = split_line_index(idx, tables.n, tables.m)
        combined = (tables.hi.lines[hi_idx].astype(np.int64) << tables.shift) + tables.lo.lines[lo_idx]
        lines = combined.reshape(-1, tables.entries_per_line)
        rows = np.arange(idx.size).reshape(idx.shape)
    else:
        lines, rows = tables.lines, idx
    k = cfg.activation_bits
    ubits = acts & ((1 << k) - 1)
    key_bit = 1 << np.arange(cfg.n, dtype=np.int64)  # activation i drives key bit i
    acc = np.zeros(np.broadcast_shapes(idx.shape, ubits.shape[:-1])[:-1], dtype=np.int64)
    for b in range(k):
        keys = ((ubits >> b) & 1) @ key_bit  # (..., chunks) stage-2 select per chunk
        plane = lines[rows, keys].sum(axis=-1, dtype=np.int64)
        partial = plane << b
        if cfg.activation_signed and b == k - 1:
            acc -= partial  # MSB plane of two's-complement inputs
        else:
            acc += partial
    return acc


def batch_inner_product(
    line_indices: np.ndarray,
    activations: np.ndarray,
    cfg: MpuConfig,
    tables: Tables,
    counters: CycleCount | None = None,
) -> np.ndarray:
    """Case-wise inner products: row i pairs its own chunks with its own inputs.

    line_indices: (cases, chunks) table line indices; activations:
    (cases, chunks*n).  Same datapath as bitserial_inner_product, batched.
    """
    _check_tables(cfg, tables)
    idx = np.asarray(line_indices, dtype=np.int64)
    acts = np.asarray(activations, dtype=np.int64)
    if idx.ndim != 2 or acts.ndim != 2 or acts.shape != (idx.shape[0], idx.shape[1] * cfg.n):
        raise ShapeError(
            f"line_indices {idx.shape} inconsistent with activations {acts.shape} at n={cfg.n}"
        )
    cases, chunks = idx.shape
    acc = _datapath(idx, acts.reshape(cases, chunks, cfg.n), cfg, tables)
    if counters is not None:
        _count_call(counters, cfg, tables, cases=cases, outputs=1, chunks=chunks)
    return acc


def pe_forward(
    line_indices: np.ndarray,
    activations: np.ndarray,
    cfg: MpuConfig,
    tables: Tables,
    counters: CycleCount | None = None,
) -> np.ndarray:
    """Layer-style forward: every output row sees the same activation vector.

    line_indices: (outputs, chunks); activations: (chunks*n,) or
    (batch, chunks*n).  Returns int64 (outputs,) or (batch, outputs).
    """
    _check_tables(cfg, tables)
    idx = np.asarray(line_indices, dtype=np.int64)
    acts = np.asarray(activations, dtype=np.int64)
    squeeze = acts.ndim == 1
    if squeeze:
        acts = acts[None, :]
    if idx.ndim != 2 or acts.ndim != 2 or acts.shape[1] != idx.shape[1] * cfg.n:
        raise ShapeError(
            f"line_indices {idx.shape} inconsistent with activations {acts.shape} at n={cfg.n}"
        )
    outputs, chunks = idx.shape
    batch = acts.shape[0]
    acc = _datapath(idx, acts.reshape(batch, 1, chunks, cfg.n), cfg, tables)
    if counters is not None:
        _count_call(counters, cfg, tables, cases=batch, outputs=outputs, chunks=chunks)
    return acc[0] if squeeze else acc
