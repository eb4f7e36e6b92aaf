"""Static table (ST) construction and the shift-add table decomposition.

One ST for parameters (n, m) enumerates every inner-product-compatible
line: line ``l`` holds the 2**n subset sums of the weight-code vector whose
m-bit two's-complement fields concatenate to ``l`` (code[0] in the least
significant field).  Entry ``k`` of a line is the sum of the codes whose
bit is set in key ``k``, so entry 0 is always 0.

Entries are stored in the narrowest integer dtype that holds every subset
sum rather than saturated back to m bits; downstream accumulation is
therefore exact and the engine-vs-MAC equivalence is provable bit for bit.

A width-m table whose size 2**(n*m) is impractical is replaced by two
width-m/2 tables combined as ``hi * 2**(m/2) + lo`` where the low field is
read unsigned; the combination reproduces the monolithic line exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import EnumerationTooLarge, OddSplitUnsupported
from .quantizer import ENUM_BUDGET_BITS, narrowest


def line_index_dtype(n: int, m: int) -> np.dtype:
    """The narrowest dtype of an n*m-bit line index (int16 at n = 2, m = 5); never uint64."""
    return narrowest(0, (1 << (n * m)) - 1)


def pack_line_index(codes, m: int) -> np.ndarray:
    """(..., n) signed codes to (...) n*m-bit line indices, code[0] least significant.

    Codes of any integer width are read as they are: each field is masked into
    ``line_index_dtype`` on its own (a wrapping cast keeps the m low bits the
    mask reads), then shifted and or-ed in; one code vector gives a scalar.
    """
    c = np.asarray(codes)
    dtype, mask = line_index_dtype(c.shape[-1], m), (1 << m) - 1
    index = np.bitwise_and(c[..., 0], mask, dtype=dtype, casting="unsafe")
    for i in range(1, c.shape[-1]):
        field = np.bitwise_and(c[..., i], mask, dtype=dtype, casting="unsafe")
        field <<= i * m
        index |= field
    return index


def unpack_line_codes(index, n: int, m: int, signed: bool = True) -> np.ndarray:
    """Inverse of pack_line_index: (...) indices to (..., n) codes.

    Fields are shifted and masked out one at a time, then sign-extended
    (``^= half; -= half``) unless ``signed=False`` reads them as magnitudes.
    """
    idx = np.asarray(index, dtype=np.int64)
    fields = np.empty(idx.shape + (n,), dtype=np.int64)
    for i in range(n):
        np.bitwise_and(idx >> (i * m), (1 << m) - 1, out=fields[..., i])
    if signed:
        fields ^= 1 << (m - 1)
        fields -= 1 << (m - 1)
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
    lines: np.ndarray  # (2**(n*m), 2**n), immutable, at the narrowest signed width its entries need

    @property
    def line_count(self) -> int:
        return 1 << (self.n * self.m)

    @property
    def entries_per_line(self) -> int:
        return 1 << self.n

    @property
    def total_entries(self) -> int:
        return self.line_count * self.entries_per_line


def check_mode(n: int, m: int, decomposed: bool) -> None:
    """Refuse a mode whose tables cannot be built.

    ValueError unless n >= 1 and m >= 2; OddSplitUnsupported unless a
    decomposed m is even with halves >= 2; EnumerationTooLarge unless each
    table it implies (n*m bits of line index, or n*m/2 per half) fits
    ENUM_BUDGET_BITS, which also keeps a line index far inside an int64.
    """
    if n < 1 or m < 2:
        raise ValueError(f"mode n={n}, m={m}: need n >= 1 and m >= 2")
    if decomposed and (m % 2 or m < 4):
        raise OddSplitUnsupported(f"mode m={m} cannot be decomposed into two halves of m >= 2")
    table_bits = n * m // 2 if decomposed else n * m
    if table_bits > ENUM_BUDGET_BITS:
        raise EnumerationTooLarge(f"mode n={n}, m={m} implies a table of 2**{table_bits} lines, "
                                  f"over the enumeration budget 2**{ENUM_BUDGET_BITS}")


def build_static_table(n: int, m: int, signed: bool = True) -> StaticTable:
    """Enumerate every line for (n, m).

    Deterministic ordering: line index is the field concatenation, key bit i
    selects weight i.
    """
    check_mode(n, m, decomposed=False)
    codes = unpack_line_codes(np.arange(1 << (n * m)), n, m, signed)
    keys = np.arange(1 << n, dtype=np.int64)
    key_bits = (keys[:, None] >> np.arange(n)[None, :]) & 1  # (2**n, n)
    # each entry sums n codes under 2**m in magnitude (int8 at n = 2, m <= 6)
    lines = (codes @ key_bits.T).astype(narrowest(-(n << m), (n << m) - 1))
    lines.flags.writeable = False
    return StaticTable(n=n, m=m, signed=signed, lines=lines)


@dataclass(frozen=True)
class DecomposedTable:
    """Two half-width tables replacing one width-m table.

    ``hi`` holds the signed upper fields, ``lo`` the unsigned lower fields;
    ``select`` combines them as ``(hi_entry << shift) + lo_entry``.
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
    def total_entries(self) -> int:
        return self.hi.total_entries + self.lo.total_entries

    def select(self, index) -> np.ndarray:
        """Stage 1 for (...) width-m line indices of any integer dtype: the (..., 2**n) int64 lines."""
        hi_index, lo_index = split_line_index(index, self.n, self.m)
        hi = np.take(self.hi.lines, hi_index, axis=0).astype(np.int64)
        return (hi << self.shift) + np.take(self.lo.lines, lo_index, axis=0)


def decompose_table(n: int, m: int = 10) -> DecomposedTable:
    """Build the hi/lo pair for an even split of m."""
    check_mode(n, m, decomposed=True)
    half = m // 2
    return DecomposedTable(
        hi=build_static_table(n, half, signed=True),
        lo=build_static_table(n, half, signed=False),
    )


def split_line_index(index, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split width-m line indices into (hi_index, lo_index) field by field.

    Each m-bit field contributes its upper half to ``hi_index`` and its
    lower half to ``lo_index``; works elementwise on any index array, of any
    integer dtype, and gives each half at its own ``line_index_dtype``.
    """
    if m % 2 != 0:
        raise OddSplitUnsupported(f"only even m can be split in half, got m={m}")
    half = m // 2
    fields = unpack_line_codes(index, n, m, signed=False)
    return pack_line_index(fields >> half, half), pack_line_index(fields, half)


def combined_entry(table: DecomposedTable, line_index: int, key: int) -> int:
    """Entry the decomposed pair produces for a full-width line index."""
    return int(table.select(line_index)[key])


def dump_table(table: StaticTable, stream: IO[str]) -> None:
    """Diagnostic text dump: one `<line_index> : <e0> <e1> ...` row per line."""
    for index in range(table.line_count):
        entries = " ".join(str(int(e)) for e in table.lines[index])
        stream.write(f"{index} : {entries}\n")
