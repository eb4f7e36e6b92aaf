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
shifts.  ``pe_forward(rows, activations)`` is the one entry to the
vectorized kernel: a shape check of the activations, the kernel and the
call's count, over resident stage-1 rows (``StageRows``), which hold the
config and tables they were built under; ``stage_rows`` refuses tables of
another mode, once, as it builds them.  Stage 1 depends only on the
weights, so an engine builds a layer's rows once: the selected lines
(``DecomposedTable.select`` combines a decomposed table's hi and lo lines
there), laid out chunk-major, then fused over p activation bit-planes by
doubling, so one gather per chunk returns the shift-added sum of p planes.
A layer has one set of rows, signed or not: the kernel reads a signed
layer's activations as offset binary (``StageRows``).  The key constants
that depend only on the layer (each group's plane shift, each chunk's
first row, the top group's key flip and the merge's start) are built with
the rows too, so a call derives nothing from the layer.  Cases are
independent, so the kernel takes them in tiles of at most GATHER_ELEMS
gathered entries, with every plane group in each tile: it keys every group,
adds the base, makes one gather and one chunk sum, and merges the groups
Horner-style, highest first, into the tile's rows of one preallocated
result (the top group's sum plus the start, then shift by p, add the next
group's sum): each partial value is the inner product with the activations'
low planes cleared, an in-range code, so it is exact wherever the result
is.  The chunk sums and the result are held at the widths one bound proves,
the layer's reach (``StageRows``): sums from int16 up, the result from
int32 up.  As in the paper's stage 2, whose select lines are the chunk's
activation bits, a chunk of two one-byte codes holding all k bits is one
16-bit word, and every group's key is one lookup of that word in a
per-process table (``_word_keys``); any other shape keys from one casting
copy of the tile's activations (any integer dtype, unmasked) by shift and
mask (``_shift_keys``).  A call's transients are bounded by the tile
whatever the batch; only the result grows with it.
``batch_inner_product`` builds p=1 rows per call, one output over every
(case, chunk), and keys each case to its own chunks through a case-wise key
base and start.  The scalar path selects each half on its own and, as the
PLMU does, subtracts the MSB plane.

The scalar path counts its selects one by one as it makes them;
``pe_forward`` adds ``costmodel.datapath_cost`` to its counters once per
call; that module's docstring holds the cycle accounting conventions.
Those counters model the hardware, which selects one plane per cycle from
a stage-1 line it reads per task: building rows once, fusing planes and
tiling cases only reorder the software's evaluation, so the counts do not
change with p or the tile size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce
from typing import IO, Sequence

import numpy as np

from .costmodel import datapath_cost
from .errors import AccumulatorOverflow, BadLineIndex, ModeMismatch, ShapeError
from .quantizer import QuantizedWeightVector, activation_range, narrowest
from .static_table import DecomposedTable, StaticTable, pack_line_index, split_line_index

Tables = StaticTable | DecomposedTable

FUSE_DEPTHS = (4, 2, 1)  # bit-planes per gather, deepest first
ROW_BUDGET_BYTES = 1 << 20  # resident rows of one layer at p > 1
GATHER_ELEMS = 1 << 19  # gathered entries per tile of cases, all plane groups


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

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 2:
            raise ValueError(f"need n >= 1 and m >= 2, got n={self.n} m={self.m}")
        if self.group_vector_len % self.n != 0:
            raise ValueError(
                f"group_vector_len {self.group_vector_len} not divisible by n={self.n}"
            )
        if self.group_vector_len < self.n:  # no whole chunk per group
            raise ValueError(f"group_vector_len {self.group_vector_len} less than n={self.n}")
        if self.groups < 1 or self.activation_bits < 1:
            raise ValueError("groups and activation_bits must be >= 1")

    @property
    def chunks_per_group(self) -> int:
        return self.group_vector_len // self.n


def plmu_width_bound(cfg: MpuConfig) -> int:
    """Accumulator width that can never overflow for in-range inputs."""
    chunk_bits = (cfg.n - 1).bit_length()  # ceil(log2(x)) for every x >= 1
    tree_bits = (cfg.chunks_per_group - 1).bit_length()
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
        lo, hi = activation_range(self.width, True)
        if not lo <= acc <= hi:
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


def _count_call(counters: CycleCount, rows: StageRows, cases: int, chunks: int) -> None:
    """Add one vectorized call's modeled cost to ``counters``."""
    cfg = rows.cfg
    cycles, selects, bits, _ = datapath_cost(  # adder ops have no live counter
        n=cfg.n, m=cfg.m, decomposed=isinstance(rows.tables, DecomposedTable), outputs=rows.rows.shape[1],
        chunks=chunks, cases=cases, groups=cfg.groups, group_vector_len=cfg.group_vector_len,
        activation_bits=cfg.activation_bits)
    counters.cycles += cycles
    counters.mux_selects += selects
    counters.memory_bits_read += bits


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
) -> int:
    """One group-vector inner product on the scalar (traceable) datapath.

    ``weights`` holds group_vector_len/n weight chunks; the result equals
    sum(code_i * x_i) exactly.  Trace rows are
    ``cycle,group,bitplane,key,selected_entry,accumulator`` with the
    accumulator shown after each chunk's shifted partial is merged; one
    task is group 0, and its cycle is the bit-plane.
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
    plmu = PlmuState(width=plmu_width_bound(cfg))
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
                trace.write(f"{b},0,{b},{key},{entry},{shown}\n")
        partial = plane_sum << b
        if cfg.activation_signed and b == k - 1:
            partial = -partial  # MSB plane of two's-complement inputs
        plmu.add(partial)
    return plmu.accumulator


@dataclass(frozen=True)
class StageRows:
    """Resident stage-1 rows of one (outputs, chunks) weight matrix, fused over p planes,
    with the ``cfg`` and ``tables`` they were built under.

    ``rows[(c << (n*p)) + key, o]`` is what output ``o`` adds for chunk ``c`` when
    its n activations carry the p-bit fields ``f_i`` of one plane group, keyed
    field-major as ``key = sum(f_i << (i*p))``: the selected line's entries for
    those p planes, shifted into place and added.  Every plane group reads these
    rows, a signed layer's MSB group too: the kernel reads a signed k-bit
    activation ``u`` as offset binary, ``u + 2**(k-1)``, which is ``u`` with bit
    k-1 flipped, so the top group's keys are XORed with ``flip`` (bit p-1 of
    every field; 0 unsigned), and the Horner merge starts from ``start``,
    ``-(sum(code) << (p-1))`` per output: the offset's ``-2**(k-1) * sum(code)``
    (exact by linearity) scaled down by the ``2**(k-p)`` the merge shifts it by.
    ``rows`` is row-major, so one key reads one contiguous run of ``outputs``
    entries.

    Both sum widths are proven from the layer's ``reach``, the largest over outputs
    ``o`` of the sum over chunks of ``peak[c, o]``, chunk ``c``'s largest p=1 |entry|
    for ``o``.  A k-bit activation, read unsigned or as two's complement, is a sum
    of its bits weighted 2**b, b < k (the MSB's weight negated if signed), and each
    plane of a chunk's n activations keys one p=1 entry of that chunk's line.  So one
    plane group's sum over chunks is within (2**p - 1) * reach, which ``plane_dtype``
    holds (narrowest from int16), and no inner product, nor any Horner partial (an
    inner product with the low planes cleared, shifted down), exceeds
    (2**k - 1) * reach, which ``out_dtype`` holds (narrowest from int32) with the
    kernel's result, its merge and ``start``, at most reach * 2**(p-1).

    The kernel's key constants are built with the rows, in the key dtype (int32
    when it holds the k activation bits and every row, else int64): ``base``
    holds each chunk's first row, ``c << (n*p)``, which every group shares, and
    ``shifts`` each plane group's lowest plane g*p, which only the shift/mask keys
    read (a word lookup's table holds the shifts and the flip).
    """

    cfg: MpuConfig
    tables: Tables
    p: int
    rows: np.ndarray  # (chunks << (n*p), outputs); narrowest dtype holding the range
    plane_dtype: np.dtype  # a plane group's sum over chunks: int16 where (2**p - 1) * reach fits it
    out_dtype: np.dtype  # int32 where (2**k - 1) * reach fits it, else int64
    flip: int  # XORed into the top group's keys: bit p-1 of every field if signed, else 0
    start: np.ndarray  # (1, outputs) in out_dtype; (cases, 1) case-wise
    shifts: np.ndarray  # (groups, 1, 1) g*p, in the key dtype
    base: np.ndarray  # (1, chunks, 1) in the key dtype; (1, chunks, cases) case-wise


@cache
def _key_maps(n: int, q: int) -> np.ndarray:
    """(2, 2**(2*n*q)): the depth-q hi and lo keys of each depth-2q key, field n-1 first."""
    side = 1 << q
    wide = (side,) * (2 * n)  # the hi and lo digits of every field, hi first
    maps = np.stack([np.broadcast_to(np.arange(side ** n).reshape(digit * n), wide).ravel()
                     for digit in ((side, 1), (1, side))])
    maps.flags.writeable = False  # shared by every call
    return maps


def _double(rows: np.ndarray, n: int, q: int) -> np.ndarray:
    """Depth-2q rows from depth-q ones, (chunks, keys, outputs): field ``hi << q | lo``
    reads ``rows[hi] << q`` plus ``rows[lo]``, two gathers along the key axis through
    ``_key_maps``."""
    hi, lo = _key_maps(n, q)
    out = np.take(rows << q, hi, axis=1)  # shifted before the gather: 2**(n*q) times fewer entries
    out += np.take(rows, lo, axis=1)
    return out


def _start(full: np.ndarray, p: int, signed: bool, dtype: np.dtype) -> np.ndarray:
    """(1, outputs) Horner start in ``dtype`` from (chunks, outputs) all-ones p=1 entries, each
    chunk's code sum: ``-(sum(code) << (p-1))`` for a signed layer, 0 for an unsigned one."""
    total = full.sum(axis=0, keepdims=True, dtype=np.int64)
    return _frozen((-(total << (p - 1)) if signed else np.zeros_like(total)).astype(dtype))


def stage_rows(
    line_indices: np.ndarray, cfg: MpuConfig, tables: Tables, p: int | None = None
) -> StageRows:
    """Stage 1 for (outputs, chunks) line indices, fused over ``p`` bit-planes.

    p=1 rows are the selected lines; depth 2q is built from depth q by
    ``_double``, so ``p`` is a power of two.  ``p`` None picks the largest of
    FUSE_DEPTHS that divides activation_bits and whose rows fit
    ROW_BUDGET_BYTES; p=1 always fits.  Tables of another mode than ``cfg``
    are refused here, once, so the rows' calls check nothing of them.
    """
    _check_tables(cfg, tables)
    idx = np.asarray(line_indices)  # any integer dtype, as it is
    if idx.ndim != 2:
        raise ShapeError(f"line_indices must be (outputs, chunks), got {idx.shape}")
    outputs, chunks = idx.shape
    if isinstance(tables, DecomposedTable):
        lines = tables.select(idx)
    else:  # (outputs, chunks, 2**n), at the table's own narrow width
        lines = np.take(tables.lines, idx, axis=0)
    n, k, signed = cfg.n, cfg.activation_bits, cfg.activation_signed
    # a depth-d entry adds p=1 entries weighted 2**j, j < d: at most magnitude * (2**d - 1)
    magnitude = max(-int(lines.min()), int(lines.max())) if lines.size else 0

    def row_bytes(depth: int) -> int:
        bound = magnitude * ((1 << depth) - 1)
        return ((chunks * outputs) << (n * depth)) * narrowest(-bound, bound).itemsize

    if p is None:
        p = next(d for d in FUSE_DEPTHS
                 if k % d == 0 and (d == 1 or row_bytes(d) <= ROW_BUDGET_BYTES))
    elif p < 1 or k % p or p & (p - 1):
        raise ValueError(f"fusion depth {p} does not divide activation_bits {k} "
                         "or is not a power of two (rows deepen by doubling)")
    max_abs = magnitude * ((1 << p) - 1)
    # row-major in the final dtype from the start: a depth-2q entry and the hi << q
    # in it are within magnitude * (2**(2q) - 1) <= max_abs, so doubling cannot wrap
    rows = np.ascontiguousarray(lines.transpose(1, 2, 0), dtype=narrowest(-max_abs, max_abs))
    # StageRows' reach: each chunk's largest p=1 |entry| (the rows' dtype holds -min), summed
    keys = rows.swapaxes(0, 1)  # key slices: no short-axis reduce, and no whole-array abs
    peak = np.maximum(reduce(np.maximum, keys), -reduce(np.minimum, keys))
    reach = int(peak.sum(axis=0, dtype=np.int64).max(initial=0))
    sums = narrowest(-((1 << p) - 1) * reach, ((1 << p) - 1) * reach, np.int16)
    bound = min(((1 << k) - 1) * reach, (1 << 63) - 1)  # capped: int64 wraps as any result would
    out = narrowest(-bound, bound, np.int32)
    start = _start(rows[:, -1], p, signed, out)  # the all-ones key selects each chunk's code sum
    q = 1
    while q < p:
        rows = _double(rows, n, q)
        q <<= 1
    resident = _frozen(rows.reshape(chunks << (n * p), outputs))
    # the key arithmetic is the kernel's hot loop: int32 whenever it holds the k bits and every row
    kdt = narrowest(0, max(1 << min(k, 63), len(resident)) - 1, np.int32)  # int64 holds any input's bits
    flip = sum(1 << (i * p + p - 1) for i in range(n)) if signed else 0  # bit p-1 of every field
    return StageRows(cfg=cfg, tables=tables, p=p, rows=resident, plane_dtype=sums, out_dtype=out,
                     flip=flip, start=start,
                     shifts=_frozen(np.arange(k // p, dtype=kdt)[:, None, None] * p),
                     base=_frozen(np.arange(chunks, dtype=kdt)[None, :, None] << (n * p)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kernel(rows: StageRows, acts: np.ndarray) -> np.ndarray:
    """The vectorized datapath shared by every batched entry point.

    acts: (cases, chunks, n) activations of any integer dtype; returns
    (cases, outputs) in the rows' ``out_dtype``, preallocated.  The cases
    are taken in tiles of up to GATHER_ELEMS gathered entries, every k/p
    plane group at once, so a call's transients are bounded by the tile,
    not the batch.  Per tile: field-major keys for all groups, laid out
    (groups, chunks, tile), the top group's XORed with ``flip``, plus the
    rows' ``base`` (a case-wise base and start are sliced with the tile);
    one gather of resident rows through the chunk-major view of those keys;
    a sum over chunks in ``plane_dtype``; and a Horner merge of the groups, highest first, from
    the top group's sum plus a signed layer's ``start`` (``acc <<= p;
    acc += sum``), into the tile's rows of the result, in ``out_dtype``,
    whose bound holds every partial.

    Where a chunk's activations are one 16-bit word (n = 2 one-byte codes)
    and hold all k bits (k <= 8: a one-byte code lacks the sign-extension
    bits of a wider layer's), every group's key, flip included, is one
    lookup of the chunk's little-endian word in ``_word_keys``, with no
    casting copy of the activations: the bits are the select lines.  Every
    other shape keys by ``_shift_keys``.
    """
    p, n, k = rows.p, rows.cfg.n, rows.cfg.activation_bits
    cases, chunks, _ = acts.shape
    outputs = rows.rows.shape[1]
    groups = len(rows.shifts)
    case_wise = rows.base.shape[-1] > 1
    table = _word_keys(p, groups, rows.flip) if n == 2 and acts.itemsize == 1 and k <= 8 else None
    out = np.empty((cases, outputs), dtype=rows.out_dtype)
    tile = max(1, GATHER_ELEMS // max(1, groups * chunks * outputs))
    for c0 in range(0, cases, tile):
        c1 = c0 + tile
        base, start = (rows.base[:, :, c0:c1], rows.start[c0:c1]) if case_wise else (rows.base, rows.start)
        if table is None:
            keys = _shift_keys(rows, acts[c0:c1])
            if rows.flip:
                keys[-1] ^= rows.flip
            keys += base
        else:  # (chunks, tile) words: activation 0 in the low byte
            words = np.ascontiguousarray(acts[c0:c1]).view("<u2")[..., 0].T
            keys = np.add(table.take(words, axis=1), base, dtype=base.dtype)
        planes = rows.rows.take(keys.transpose(1, 0, 2), axis=0).sum(axis=0, dtype=rows.plane_dtype)
        acc = out[c0:c1]
        acc[...] = planes[-1]
        if rows.flip:  # a cast copy, then a same-dtype add: one mixed-dtype broadcast add takes 3-4x as long
            acc += start
        for plane in planes[-2::-1]:  # Horner: acc is the sum over the groups merged so far
            acc <<= p
            acc += plane
    return out


@cache
def _word_keys(p: int, groups: int, flip: int) -> np.ndarray:
    """(groups, 2**16): each plane group's field-major key for every little-endian word
    of two one-byte activations, ``key = f_0 | f_1 << p`` with ``f_i`` the p-bit field
    of byte i from bit g*p on, the top group's XORed with ``flip``; uint8 up to p = 4,
    else uint16.  Built straight at its width from each byte's fields, (groups, high
    byte, low byte)."""
    dtype = np.uint8 if p <= 4 else np.uint16
    fields = (np.arange(256, dtype=dtype) >> np.arange(0, groups * p, p, dtype=dtype)[:, None]) & ((1 << p) - 1)
    keys = (fields[:, :, None] << p) | fields[:, None, :]  # f_1 from the high byte, f_0 from the low
    keys[-1] ^= flip
    return _frozen(keys.reshape(groups, 1 << 16))  # shared by every call


def _shift_keys(rows: StageRows, acts: np.ndarray) -> np.ndarray:
    """(groups, chunks, cases) field-major keys of (cases, chunks, n) activations, no base.

    The activations are read without a mask, in one casting copy to the key
    dtype: a group's field ``(u >> g*p) & (2**p - 1)`` has g*p + p <= k, so it
    reads only the low k bits of the two's-complement value, which the cast
    keeps even where it wraps a wider integer to int32.
    """
    p, field = rows.p, (1 << rows.p) - 1
    u = np.asarray(acts.transpose(2, 1, 0), dtype=rows.base.dtype, order="C")  # (n, chunks, cases)
    keys = (u[0] >> rows.shifts) & field
    for i in range(1, len(u)):
        keys += ((u[i] >> rows.shifts) & field) << (i * p)
    return keys


def _integers(a) -> np.ndarray:
    """``a`` as it is if it holds integers (the kernel reads its low bits in any width), else its
    int64 copy, which must equal it: ValueError names a value such as 0.5, nan or 2**63."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        return a
    with np.errstate(invalid="ignore"):  # nan, inf and floats past int64 cast to values unlike them
        v = a.astype(np.int64)
    if (v != a).any():
        raise ValueError(f"value {a[v != a].flat[0]} is not an integer within int64")
    return v


def batch_inner_product(
    line_indices: np.ndarray,
    activations: np.ndarray,
    cfg: MpuConfig,
    tables: Tables,
    counters: CycleCount | None = None,
) -> np.ndarray:
    """Case-wise inner products: row i pairs its own chunks with its own inputs.

    line_indices: (cases, chunks) table line indices; activations:
    (cases, chunks*n).  Same datapath as bitserial_inner_product, batched:
    p=1 rows built per call, one output over every (case, chunk), with a
    case-wise key base that keys each case to its own chunks.
    """
    if np.ndim(line_indices) != 2:
        raise ShapeError(f"line_indices must be (cases, chunks), got {np.shape(line_indices)}")
    cases, chunks = np.shape(line_indices)
    flat = stage_rows(np.reshape(line_indices, (1, -1)), cfg, tables, p=1)
    full = flat.rows[(1 << cfg.n) - 1::1 << cfg.n].reshape(cases, chunks)  # all-ones keys: code sums
    rows = replace(flat, base=flat.base.reshape(1, cases, chunks).swapaxes(1, 2),
                   start=_start(full.T, 1, cfg.activation_signed, flat.out_dtype).T)
    return pe_forward(rows, activations, counters=counters)[:, 0]


def pe_forward(rows: StageRows, activations: np.ndarray, counters: CycleCount | None = None) -> np.ndarray:
    """Layer-style forward over ``stage_rows``, built once by the caller and kept resident.

    activations: (chunks*n,) or (batch, chunks*n), whole numbers of any dtype.  Returns
    (outputs,) or (batch, outputs) in ``rows.out_dtype``: int32 where the rows prove
    every result fits it, else int64.  Every output row sees the same activation
    vector, unless the rows carry a case-wise key base.
    """
    acts = _integers(activations)
    squeeze = acts.ndim == 1
    if squeeze:
        acts = acts[None, :]
    n = rows.cfg.n
    _, chunks, wise = rows.base.shape  # wise: 1, or the cases of a case-wise base
    if acts.ndim != 2 or acts.shape[1] != chunks * n or wise not in (1, len(acts)):
        raise ShapeError(f"activations {acts.shape} do not fit rows of {chunks} chunks at n={n}"
                         + (f" for {wise} cases" if wise > 1 else ""))
    acc = _kernel(rows, acts.reshape(len(acts), chunks, n))
    if counters is not None:
        _count_call(counters, rows, cases=len(acts), chunks=chunks)
    return acc[0] if squeeze else acc
