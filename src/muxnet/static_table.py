"""Static table (ST) construction and the shift-add table decomposition.

One ST for parameters (n, m) enumerates every inner-product-compatible
line: line ``l`` holds the 2**n subset sums of the weight-code vector whose
m-bit two's-complement fields concatenate to ``l`` (code[0] in the least
significant field).  Entry ``k`` of a line is the sum of the codes whose
bit is set in key ``k``, so entry 0 is always 0.

Entries are stored at full subset-sum width (m + ceil(log2 n) + 1 bits of
headroom) rather than saturated back to m bits; downstream accumulation is
therefore exact and the engine-vs-MAC equivalence is provable bit for bit.

A width-m table whose size 2**(n*m) is impractical is replaced by two
width-m/2 tables combined as ``hi * 2**(m/2) + lo`` where the low field is
read unsigned; the combination reproduces the monolithic line exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import EnumerationTooLarge, ModeMismatch, OddSplitUnsupported
from .quantizer import ENUM_BUDGET_BITS, QuantizedWeightVector


def pack_line_index(codes, m: int) -> np.ndarray:
    """(..., n) signed codes to (...) n*m-bit line indices, code[0] least significant.

    One code vector gives a scalar index.
    """
    c = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(0, c.shape[-1] * m, m, dtype=np.int64)
    return ((c & ((1 << m) - 1)) << shifts).sum(axis=-1)


def unpack_line_codes(index, n: int, m: int, signed: bool = True) -> np.ndarray:
    """Inverse of pack_line_index: (...) indices to (..., n) codes.

    ``signed=False`` reads the fields as plain magnitudes.
    """
    shifts = np.arange(0, n * m, m, dtype=np.int64)
    fields = (np.asarray(index, dtype=np.int64)[..., None] >> shifts) & ((1 << m) - 1)
    if signed:
        fields = fields - ((fields >> (m - 1)) << m)
    return fields


@dataclass(frozen=True)
class StaticTable:
    """All 2**(n*m) inner-product-compatible lines for one (n, m) mode.

    ``signed=False`` is used for the low half of a decomposed table, whose
    fields are plain magnitudes.
    """

    n: int
    m: int
    signed: bool
    lines: np.ndarray  # (2**(n*m), 2**n) int32, immutable

    @property
    def line_count(self) -> int:
        return 1 << (self.n * self.m)

    @property
    def entries_per_line(self) -> int:
        return 1 << self.n

    @property
    def entry_width(self) -> int:
        """Signed bit-width provisioned per entry (exact subset-sum headroom)."""
        return self.m + math.ceil(math.log2(self.n)) + 1 if self.n > 1 else self.m + 1

    @property
    def total_entries(self) -> int:
        return self.line_count * self.entries_per_line

    def line_index_of(self, weights: QuantizedWeightVector) -> int:
        """Line index of a quantized weight vector, checked against this table's mode."""
        if weights.m != self.m or weights.n != self.n:
            raise ModeMismatch(
                f"weight vector is (n={weights.n}, m={weights.m}) but table is (n={self.n}, m={self.m})"
            )
        return int(pack_line_index(weights.codes, self.m))

    def codes_of_line(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.line_count:
            raise ValueError(f"line index {index} out of range")
        return tuple(unpack_line_codes(index, self.n, self.m, self.signed).tolist())


def build_static_table(n: int, m: int, signed: bool = True) -> StaticTable:
    """Enumerate every line for (n, m).

    Deterministic ordering: line index is the field concatenation, key bit i
    selects weight i.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    min_m = 2 if signed else 1
    if m < min_m:
        raise ValueError(f"need m >= {min_m}, got {m}")
    if n * m > ENUM_BUDGET_BITS:
        raise EnumerationTooLarge(
            f"2**{n * m} lines exceed the enumeration budget (n*m <= {ENUM_BUDGET_BITS})"
        )
    codes = unpack_line_codes(np.arange(1 << (n * m)), n, m, signed)
    keys = np.arange(1 << n, dtype=np.int64)
    key_bits = (keys[:, None] >> np.arange(n)[None, :]) & 1  # (2**n, n)
    lines = (codes @ key_bits.T).astype(np.int32)
    lines.flags.writeable = False
    return StaticTable(n=n, m=m, signed=signed, lines=lines)


@dataclass(frozen=True)
class DecomposedTable:
    """Two half-width tables replacing one width-m table.

    ``hi`` holds the signed upper fields, ``lo`` the unsigned lower fields;
    a combined entry is ``hi_entry << shift | added lo_entry``.
    """

    hi: StaticTable
    lo: StaticTable

    @property
    def n(self) -> int:
        return self.hi.n

    @property
    def m(self) -> int:
        return self.hi.m + self.lo.m

    @property
    def shift(self) -> int:
        return self.lo.m

    @property
    def entries_per_line(self) -> int:
        return self.hi.entries_per_line

    @property
    def total_entries(self) -> int:
        return self.hi.total_entries + self.lo.total_entries


def decompose_table(n: int, m: int = 10) -> DecomposedTable:
    """Build the hi/lo pair for an even split of m."""
    if m % 2 != 0:
        raise OddSplitUnsupported(f"only even m can be split in half, got m={m}")
    half = m // 2
    return DecomposedTable(
        hi=build_static_table(n, half, signed=True),
        lo=build_static_table(n, half, signed=False),
    )


def split_line_index(index, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split width-m line indices into (hi_index, lo_index) field by field.

    Each m-bit field contributes its upper half to ``hi_index`` and its
    lower half to ``lo_index``; works elementwise on any index array.
    """
    if m % 2 != 0:
        raise OddSplitUnsupported(f"only even m can be split in half, got m={m}")
    half = m // 2
    fields = unpack_line_codes(index, n, m, signed=False)
    return pack_line_index(fields >> half, half), pack_line_index(fields, half)


def combined_entry(table: DecomposedTable, line_index: int, key: int) -> int:
    """Entry the decomposed pair produces for a full-width line index."""
    hi_index, lo_index = split_line_index(line_index, table.n, table.m)
    hi_v = int(table.hi.lines[hi_index, key])
    lo_v = int(table.lo.lines[lo_index, key])
    return (hi_v << table.shift) + lo_v


def dump_table(table: StaticTable, stream: IO[str]) -> None:
    """Diagnostic text dump: one `<line_index> : <e0> <e1> ...` row per line."""
    for index in range(table.line_count):
        entries = " ".join(str(int(e)) for e in table.lines[index])
        stream.write(f"{index} : {entries}\n")
