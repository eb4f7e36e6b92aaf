"""Static-table enumeration and decomposition against independent oracles."""

import io

import numpy as np
import pytest

from muxnet.compiler import CompileConfig
from muxnet.errors import EnumerationTooLarge, MuxnetError, OddSplitUnsupported
from muxnet.quantizer import ENUM_BUDGET_BITS, narrowest
from muxnet.static_table import (
    DecomposedTable,
    StaticTable,
    build_static_table,
    check_mode,
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


def oracle_pack(codes, m: int) -> int:
    """Oracle: field concatenation written as integer arithmetic on two's-complement values."""
    return sum((int(c) % (1 << m)) * (1 << (m * i)) for i, c in enumerate(codes))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_codec_round_trips_code_arrays(n):
    rng = np.random.default_rng(31 + n)
    for m in range(2, 2 * ENUM_BUDGET_BITS // n + 1):  # up to a decomposed mode's n*m
        lo, hi = -(1 << (m - 1)), (1 << (m - 1)) - 1
        codes = rng.integers(lo, hi + 1, size=(5, 7, n))  # (outputs, chunks, n)
        codes[0, :2] = lo
        codes[1, :2] = hi
        codes[2, 0] = [lo, hi, 0][:n]
        index = pack_line_index(codes, m)
        # held at the narrowest width of n*m bits: int8 to 7 bits, uint8 at 8, int16 to 15, ...
        assert index.shape == (5, 7) and index.dtype == narrowest(0, 2 ** (n * m) - 1)
        assert index.dtype != np.uint64  # no loop for uint64 >> int64
        assert index.tolist() == [[oracle_pack(c, m) for c in row] for row in codes]
        assert np.array_equal(unpack_line_codes(index, n, m), codes), m
        assert np.array_equal(unpack_line_codes(index, n, m, signed=False), codes % (1 << m)), m
        # one code vector and one index stay a scalar and an (n,) vector
        flat = int(index[2, 0])
        assert pack_line_index(codes[2, 0].tolist(), m) == flat and np.ndim(pack_line_index(codes[2, 0], m)) == 0
        assert unpack_line_codes(flat, n, m).tolist() == oracle_decode(flat, n, m, signed=True)
        assert unpack_line_codes(flat, n, m, signed=False).tolist() == oracle_decode(flat, n, m, signed=False)


@pytest.mark.parametrize("m", [2, 5, 8])
def test_pack_reads_every_integer_width_alike(m):
    # codes are read at their width, each field masked into the index dtype on its own
    # (n*m = 6, 15 and 24 bits: int8, int16 and int32), so a narrow array, an int64 one
    # and Python tuples give the same indices
    rng = np.random.default_rng(m)
    lo, hi = -(1 << (m - 1)), (1 << (m - 1)) - 1
    codes = rng.integers(lo, hi + 1, size=(4, 9, 3))
    codes[0, 0] = [lo, hi, -1]
    want = [[oracle_pack(c, m) for c in row] for row in codes.tolist()]
    for form in (np.int8, np.int16, np.int32, np.int64, "tuples"):
        given = tuple(tuple(tuple(c) for c in row) for row in codes.tolist()) if form == "tuples" \
            else codes.astype(form)
        index = pack_line_index(given, m)
        assert index.dtype == {2: np.int8, 5: np.int16, 8: np.int32}[m] and index.tolist() == want, form
        one = pack_line_index(given[0][0], m)  # a single code vector stays a scalar
        assert np.ndim(one) == 0 and one == want[0][0], form


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
    # two codes in [-4, 3] sum to [-8, 6]: the stored dtype holds both ends
    info = np.iinfo(table.lines.dtype)
    assert info.min <= -8 and 6 <= info.max and table.lines.dtype == np.int8
    # the all-(-4) line actually reaches -8, needing the extra sum bit
    assert table.lines.min() == -8 and table.lines.max() == 6


def test_enumeration_budget():
    with pytest.raises(EnumerationTooLarge):
        build_static_table(3, 7)


def test_lines_are_frozen():
    table = build_static_table(2, 2)
    with pytest.raises(ValueError):
        table.lines[0, 0] = 1


def test_check_mode_is_the_rule_compile_config_and_table_builders_share():
    def build(n, m, decomposed):
        return decompose_table(n, m) if decomposed else build_static_table(n, m)

    for n in range(4):
        for m in range(12):
            for decomposed in (False, True):
                table_bits = n * m // 2 if decomposed else n * m
                want = (n >= 1 and m >= 2 and table_bits <= ENUM_BUDGET_BITS
                        and (not decomposed or (m % 2 == 0 and m >= 4)))
                budget = n * m - 1 if decomposed else n * m  # makes cfg.decomposed(m) match
                try:
                    check_mode(n, m, decomposed)
                    CompileConfig(n=n, conv_m=m, linear_m=m, table_budget_bits=budget)
                except (ValueError, MuxnetError) as exc:
                    assert not want, (n, m, decomposed)
                    with pytest.raises(ValueError):  # a compile setting: exit 3
                        CompileConfig(n=n, conv_m=m, linear_m=m, table_budget_bits=budget)
                    with pytest.raises(type(exc)):
                        build(n, m, decomposed)
                    continue
                assert want, (n, m, decomposed)
                if table_bits <= 12:  # keep the builds small
                    tables = build(n, m, decomposed)
                    assert (tables.n, tables.m) == (n, m)
                    assert isinstance(tables, DecomposedTable) == decomposed


def test_decompose_rejects_odd():
    with pytest.raises(OddSplitUnsupported):
        decompose_table(2, 5)
    with pytest.raises(OddSplitUnsupported, match="^only even m can be split in half, got m=5$"):
        split_line_index(np.zeros(3, dtype=np.int16), 1, 5)


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


def test_select_gives_the_monolithic_lines_for_any_index_shape():
    mono = build_static_table(2, 6)
    dec = decompose_table(2, 6)
    idx = np.random.default_rng(2).integers(0, mono.line_count, size=(5, 7))
    got = dec.select(idx)
    assert got.shape == (5, 7, 4) and got.dtype == np.int64
    assert np.array_equal(got, mono.lines[idx])
    assert np.array_equal(dec.select(np.arange(mono.line_count)), mono.lines)


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
