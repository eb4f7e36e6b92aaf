"""Static-table enumeration and decomposition against independent oracles."""

import io

import numpy as np
import pytest

from muxnet.errors import EnumerationTooLarge, ModeMismatch, OddSplitUnsupported
from muxnet.quantizer import quantize_weights
from muxnet.static_table import (
    StaticTable,
    build_static_table,
    combined_entry,
    decompose_table,
    dump_table,
    pack_line_index,
    split_line_index,
    unpack_line_codes,
)


def oracle_subset_sums(codes, n: int) -> list[int]:
    """Oracle: key-indexed subset sums by plain bit tests."""
    return [sum(int(codes[i]) for i in range(n) if (key >> i) & 1)
            for key in range(1 << n)]


def oracle_decode(index: int, n: int, m: int, signed: bool) -> list[int]:
    """Oracle: field extraction written as integer division, not masking."""
    out = []
    for i in range(n):
        f = (index // (1 << (m * i))) % (1 << m)
        if signed and f >= (1 << (m - 1)):
            f -= 1 << m
        out.append(f)
    return out


def test_pack_examples():
    assert pack_line_index((1, -2), 2) == 0b1001
    assert pack_line_index((-16,), 5) == 16
    assert pack_line_index((0, 0, 0), 4) == 0


def test_pack_unpack_roundtrip_exhaustive():
    for n, m in ((1, 3), (2, 3), (3, 2)):
        for index in range(1 << (n * m)):
            codes = unpack_line_codes(index, n, m)
            assert list(codes) == oracle_decode(index, n, m, signed=True)
            assert pack_line_index(codes, m) == index


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (2, 5)])
def test_line_count_is_2_pow_nm(n, m):
    table = build_static_table(n, m)
    assert table.line_count == 1 << (n * m)
    assert table.lines.shape == (table.line_count, 1 << n)


@pytest.mark.parametrize("n,m,signed", [
    (1, 2, True), (2, 2, True), (2, 3, True), (3, 3, True),
    (2, 5, True), (2, 6, True), (3, 4, True), (4, 3, True),
    (2, 3, False), (2, 5, False),
])
def test_every_entry_matches_subset_sum_oracle(n, m, signed):
    table = build_static_table(n, m, signed=signed)
    for index in range(table.line_count):
        codes = oracle_decode(index, n, m, signed)  # oracle decode first
        want = oracle_subset_sums(codes, n)
        assert table.lines[index].tolist() == want, f"line {index}"


def test_entry_zero_always_zero():
    table = build_static_table(3, 3)
    assert np.all(table.lines[:, 0] == 0)


def test_entry_width_covers_extremes():
    table = build_static_table(2, 3)
    lim = 1 << (table.entry_width - 1)
    assert table.lines.min() >= -lim and table.lines.max() < lim
    # the all-(-4) line actually reaches -8, needing the extra sum bit
    assert table.lines.min() == -8


def test_line_index_of_checks_mode():
    table = build_static_table(2, 3)
    qwv = quantize_weights([1.0, -2.0], m=3, scale=1.0)
    assert table.line_index_of(qwv) == 0b110001
    with pytest.raises(ModeMismatch):
        table.line_index_of(quantize_weights([1.0, -2.0], m=4, scale=1.0))
    with pytest.raises(ModeMismatch):
        table.line_index_of(quantize_weights([1.0], m=3, scale=1.0))


def test_enumeration_budget():
    with pytest.raises(EnumerationTooLarge):
        build_static_table(3, 7)


def test_lines_are_frozen():
    table = build_static_table(2, 2)
    with pytest.raises(ValueError):
        table.lines[0, 0] = 1


def test_decompose_rejects_odd():
    with pytest.raises(OddSplitUnsupported):
        decompose_table(2, 5)


def test_decomposed_halves_have_expected_modes():
    dec = decompose_table(2, 10)
    assert dec.hi.signed and not dec.lo.signed
    assert dec.hi.m == dec.lo.m == 5
    assert dec.m == 10 and dec.shift == 5
    assert dec.total_entries == 2 * (1 << 10) * 4


def test_split_example_minus_205():
    # -205 = 0b11001_10011 as a 10-bit field: hi -7, lo 19, -7*32 + 19 = -205
    index = pack_line_index((-205,), 10)
    hi, lo = split_line_index(index, 1, 10)
    assert unpack_line_codes(hi, 1, 5)[0] == -7
    assert unpack_line_codes(lo, 1, 5, signed=False)[0] == 19
    assert -7 * 32 + 19 == -205


def test_decomposed_equals_monolithic_exhaustive_m4():
    mono = build_static_table(2, 4)
    dec = decompose_table(2, 4)
    for index in range(mono.line_count):
        for key in range(4):
            assert combined_entry(dec, index, key) == int(mono.lines[index, key])


def test_split_array_matches_scalar():
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 1 << 12, size=(5, 7))
    hi, lo = split_line_index(idx, 2, 6)
    assert hi.shape == lo.shape == idx.shape
    for pos in np.ndindex(idx.shape):
        fields = oracle_decode(int(idx[pos]), 2, 6, signed=False)
        assert oracle_decode(int(hi[pos]), 2, 3, signed=False) == [f // 8 for f in fields]
        assert oracle_decode(int(lo[pos]), 2, 3, signed=False) == [f % 8 for f in fields]


def test_dump_table_format():
    table = build_static_table(1, 2)
    out = io.StringIO()
    dump_table(table, out)
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "0 : 0 0"
    assert lines[3] == "3 : 0 -1"  # field 3 is code -1


def test_manual_table_construction_validates():
    good = build_static_table(2, 2)
    clone = StaticTable(n=2, m=2, signed=True, lines=good.lines.copy())
    assert np.array_equal(clone.lines, good.lines)
