"""Two-stage MUX datapath against the direct-MAC route.

The MUX side may only gather table entries and shift-add; the oracle side
multiplies. Keeping both routes alive is the point of every test here.
"""

import io
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import muxnet.mpu
from muxnet.compiler import compile_model, default_float_model
from muxnet.costmodel import datapath_cost
from muxnet.engine import MpuEngine
from muxnet.errors import AccumulatorOverflow, BadLineIndex, ModeMismatch, ShapeError
from muxnet.mpu import (
    FUSE_DEPTHS,
    CycleCount,
    MpuConfig,
    PlmuState,
    batch_inner_product,
    bitserial_inner_product,
    pe_forward,
    plmu_width_bound,
    stage1_select,
    stage2_select,
    stage_rows,
)
from muxnet.quantizer import QParams, QuantizedWeightVector, activation_range
from muxnet.reference import decode_line_indices, reference_inner_product, reference_logits
from muxnet.static_table import build_static_table, decompose_table, pack_line_index

T5 = build_static_table(2, 5)
D10 = decompose_table(2, 10)


def qwv(codes, m=5):
    return QuantizedWeightVector(codes=tuple(codes), qparams=QParams(m=m, scale=1.0))


def pack_rows(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    fields = (codes.astype(np.int64) & ((1 << m) - 1)).reshape(*codes.shape[:-1], -1, n)
    return (fields << (m * np.arange(n, dtype=np.int64))).sum(axis=-1)


def test_stage_selects_and_counters():
    counters = CycleCount()
    line = stage1_select(T5, pack_line_index((3, -7), 5), counters)
    assert line.tolist() == [0, 3, -7, -4]
    assert stage2_select(line, 0b10, counters) == -7
    assert counters.mux_selects == 4 + 1
    assert counters.memory_bits_read == 10


def test_reference_inner_product_refuses_a_length_mismatch():
    assert reference_inner_product([3, -7], [2, 1]) == -1
    with pytest.raises(ValueError, match="length mismatch: 2 codes vs 3 activations"):
        reference_inner_product([3, -7], [2, 1, 0])


def test_stage1_rejects_bad_index():
    with pytest.raises(BadLineIndex):
        stage1_select(T5, 1 << 10)


def test_scalar_exhaustive_n2_m2_signed():
    table = build_static_table(2, 2)
    cfg = MpuConfig(n=2, m=2, groups=1, group_vector_len=2,
                    activation_bits=3, activation_signed=True)
    for codes in decode_line_indices(np.arange(table.line_count)[:, None], 2, 2).tolist():
        for x0 in range(-4, 4):
            for x1 in range(-4, 4):
                want = reference_inner_product(codes, (x0, x1))  # oracle first
                got = bitserial_inner_product([qwv(codes, 2)], [x0, x1], cfg, table)
                assert got == want, (codes, x0, x1)


def test_scalar_multi_chunk_vs_oracle():
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    rng = np.random.default_rng(3)
    for _ in range(50):
        codes = rng.integers(-16, 16, size=8)
        acts = rng.integers(-128, 128, size=8).tolist()
        want = reference_inner_product(codes, acts)
        weights = [qwv(codes[i:i + 2]) for i in range(0, 8, 2)]
        assert bitserial_inner_product(weights, acts, cfg, T5) == want


def test_scalar_unsigned_activation_mode():
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=2,
                    activation_bits=8, activation_signed=False)
    assert bitserial_inner_product([qwv([-16, 15])], [255, 255], cfg, T5) == -255
    with pytest.raises(ValueError):
        bitserial_inner_product([qwv([1, 1])], [-1, 0], cfg, T5)


def test_scalar_decomposed_mode_vs_oracle():
    cfg = MpuConfig(n=2, m=10, groups=1, group_vector_len=4,
                    activation_bits=8, activation_signed=True)
    rng = np.random.default_rng(4)
    for _ in range(50):
        codes = rng.integers(-512, 512, size=4)
        acts = rng.integers(-128, 128, size=4).tolist()
        want = reference_inner_product(codes, acts)
        weights = [qwv(codes[:2], 10), qwv(codes[2:], 10)]
        assert bitserial_inner_product(weights, acts, cfg, D10) == want


def test_scalar_counter_conventions():
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    counters = CycleCount()
    weights = [qwv([1, 2]), qwv([3, 4]), qwv([-1, -2]), qwv([5, -6])]
    bitserial_inner_product(weights, [1] * 8, cfg, T5, counters=counters)
    assert counters.cycles == 8  # one task, one bit-plane per cycle
    assert counters.memory_bits_read == 4 * 10  # 4 chunks, n*m bits each
    # stage-1: 4 chunks * 2**n; stage-2: 4 chunks * 8 planes
    assert counters.mux_selects == 4 * 4 + 4 * 8


def test_trace_format_and_consistency():
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=2,
                    activation_bits=4, activation_signed=True)
    out = io.StringIO()
    got = bitserial_inner_product([qwv([3, -7])], [5, -3], cfg, T5, trace=out)
    rows = [line.split(",") for line in out.getvalue().strip().splitlines()]
    assert len(rows) == 4  # one row per bit-plane for the single chunk
    assert all(len(r) == 6 for r in rows)
    assert [int(r[2]) for r in rows] == [0, 1, 2, 3]
    assert int(rows[-1][5]) == got  # accumulator column ends at the result
    assert got == reference_inner_product([3, -7], [5, -3])


def test_batch_matches_scalar_and_oracle():
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    rng = np.random.default_rng(5)
    codes = rng.integers(-16, 16, size=(200, 8))
    acts = rng.integers(-128, 128, size=(200, 8))
    idx = pack_rows(codes, 2, 5)
    got = batch_inner_product(idx, acts, cfg, T5)
    want = (codes * acts).sum(axis=1)
    assert np.array_equal(got, want)
    # spot check the scalar path agreement
    weights = [qwv(codes[0, i:i + 2]) for i in range(0, 8, 2)]
    assert bitserial_inner_product(weights, acts[0].tolist(), cfg, T5) == got[0]


def test_batch_decomposed_matches_oracle():
    cfg = MpuConfig(n=2, m=10, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    rng = np.random.default_rng(6)
    codes = rng.integers(-512, 512, size=(200, 8))
    acts = rng.integers(-128, 128, size=(200, 8))
    got = batch_inner_product(pack_rows(codes, 2, 10), acts, cfg, D10)
    assert np.array_equal(got, (codes * acts).sum(axis=1))


def test_pe_forward_matches_matmul_oracle():
    # the one kernel at every fusion depth: p planes per gather, one set of rows
    # at every p, which a signed layer reads as offset binary: its top group's keys
    # flip bit p-1 of each field, and the merge starts from -(sum(code) << (p-1))
    rng = np.random.default_rng(7)
    for tables, m in ((T5, 5), (D10, 10)):
        for signed in (True, False):
            for bits in (3, 7, 8, 16):
                cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8,
                                activation_bits=bits, activation_signed=signed)
                lo, hi = activation_range(bits, signed)
                half = 1 << (m - 1)
                codes = rng.integers(-half, half, size=(6, 10))  # 6 outputs, fan-in 10
                codes[0] = -half  # the extremes meet the extreme activations below
                acts = rng.integers(lo, hi + 1, size=(17, 10))
                acts[1], acts[2] = lo, hi
                idx = pack_rows(codes, 2, m)
                want = acts @ codes.T  # oracle first
                for p in (1, 2, 4):
                    if bits % p:
                        continue
                    rows = stage_rows(idx, cfg, tables, p=p)
                    span = 5 << (2 * p)  # 5 chunks, keys of 2*p bits
                    flip = (1 << (p - 1)) | (1 << (2 * p - 1)) if signed else 0
                    assert rows.p == p and rows.flip == flip and rows.base.shape == (1, 5, 1)
                    assert rows.rows.shape == (span, 6)
                    start = -(codes.sum(axis=1) << (p - 1)) if signed else np.zeros(6)
                    assert np.array_equal(rows.start, start[None])
                    got = pe_forward(rows, acts)
                    assert np.array_equal(got, want), (m, signed, bits, p)
                    single = pe_forward(rows, acts[1])
                    assert single.shape == (6,)
                    assert np.array_equal(single, want[1]), (m, signed, bits, p)
                # the depth stage_rows picks itself
                assert np.array_equal(pe_forward(stage_rows(idx, cfg, tables), acts), want)
                # case-wise: each case pairs its own weights with its own inputs
                case_codes = rng.integers(-half, half, size=(17, 10))
                case_codes[1] = -half
                case_idx = pack_rows(case_codes, 2, m)
                got = batch_inner_product(case_idx, acts, cfg, tables)
                assert np.array_equal(got, (case_codes * acts).sum(axis=1)), (m, signed, bits)
                one = batch_inner_product(case_idx[1:2], acts[1:2], cfg, tables)
                assert np.array_equal(one, got[1:2])


@pytest.mark.parametrize("bits", [3, 7, 8, 16])
@pytest.mark.parametrize("m, tables", [(5, T5), (10, D10)])
def test_offset_binary_start_is_exact_at_the_extreme_activations(monkeypatch, bits, m, tables):
    # a signed layer reads u + 2**(k-1): all -2**(k-1) reads as all zeros, so each
    # result is the start alone, and all 2**(k-1) - 1 as all ones, every group's
    # largest key; on both key paths, at every p that divides k, and with the
    # case-wise start of batch_inner_product.  The result, its merge and the start
    # are int32 where (2**k - 1) * reach fits it, reach being chunks * 2**m here (all
    # -2**(m-1) codes make each chunk's largest |entry| 2**m): over 5 chunks always,
    # over 1040 chunks only up to 8 bits (255 * 1040 * 1024 < 2**31 <= 65535 * 1040 * 32)
    half = 1 << (m - 1)
    cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8, activation_bits=bits, activation_signed=True)
    lo, hi = activation_range(bits, True)
    for fan_in in (10, 2080):
        codes = np.random.default_rng(bits + m).integers(-half, half, size=(4, fan_in))
        codes[0], codes[1] = -half, half - 1
        idx = pack_rows(codes, 2, m)
        acts = np.array([[lo] * fan_in, [hi] * fan_in])
        want = acts @ codes.T  # oracle first
        case_want = (codes[:2] * acts).sum(axis=1)
        result = np.int64 if fan_in > 10 and bits == 16 else np.int32
        paths = [(np.int64, "_word_keys")] + ([(np.int8, "_shift_keys")] if bits <= 8 else [])
        for dtype, other in paths:  # int64 keys by shift and mask, int8 by word lookup
            with monkeypatch.context() as patch:
                patch.setattr(muxnet.mpu, other, refuse)
                x = acts.astype(dtype)
                for p in (1, 2, 4, 8) if fan_in == 10 else (1, 4):  # p = 8 rows of 1040 chunks: 1 GB
                    if bits % p == 0:
                        rows = stage_rows(idx, cfg, tables, p=p)
                        assert rows.out_dtype == rows.start.dtype == result, (fan_in, p)
                        got = pe_forward(rows, x)
                        assert got.dtype == result and np.array_equal(got, want), (fan_in, dtype, p)
                got = batch_inner_product(idx[:2], x, cfg, tables)
                assert got.dtype == result and np.array_equal(got, case_want), (fan_in, dtype)


@pytest.mark.parametrize("bits", [8, 32])  # int32 keys, then int64 keys
@pytest.mark.parametrize("signed", [False, True])
def test_activations_are_read_as_their_low_bits(bits, signed):
    # the kernel keys from the activations with no mask: high bits (negatives on
    # an unsigned layer, values past 2**31 that wrap in an int32 cast) must not
    # reach a key, so any input acts as its low ``bits`` bits, sign-extended if signed
    rng = np.random.default_rng(bits + signed)
    codes = rng.integers(-16, 16, size=(6, 10))
    idx = pack_rows(codes, 2, 5)
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=bits, activation_signed=signed)
    acts = rng.integers(-2**62, 2**62, size=(17, 10))
    acts[0], acts[1], acts[2] = -1, 2**31, -2**31 - 1
    acts[3] = rng.integers(-(1 << bits), 0, size=10) if bits < 32 else -(2**40)
    wrapped = acts & ((1 << bits) - 1)
    if signed:
        wrapped -= (wrapped >> (bits - 1)) << bits
    want = wrapped @ codes.T  # oracle first
    for p in FUSE_DEPTHS:
        rows = stage_rows(idx, cfg, T5, p=p)
        got = pe_forward(rows, acts)
        assert np.array_equal(got, pe_forward(rows, wrapped)), p
        assert np.array_equal(got, want), p


def test_pe_forward_refuses_values_that_are_not_integers():
    # float activations are read only where int64 holds them exactly: a cast
    # would read 0.5 as 0 and nan or 2**63 as whatever the platform makes of them
    rng = np.random.default_rng(41)
    codes = rng.integers(-16, 16, size=(3, 10))
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=8, activation_signed=True)
    rows = stage_rows(pack_rows(codes, 2, 5), cfg, T5)
    acts = rng.integers(-128, 128, size=(4, 10))
    assert np.array_equal(pe_forward(rows, acts.astype(np.float64)), acts @ codes.T)
    for bad in (0.5, -1.25, np.nan, np.inf, -np.inf, 2.0**63, -2.0**64):
        f = acts.astype(np.float64)
        f[2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"value {bad} is not an integer")):
                pe_forward(rows, f)
            with pytest.raises(ValueError, match=re.escape(f"value {bad} is not an integer")):
                batch_inner_product(pack_rows(np.tile(codes[:1], (4, 1)), 2, 5), f, cfg, T5)


@pytest.mark.parametrize("bits", [32, 63, 64])
def test_keys_widen_to_int64_past_31_bits(bits):
    # an int32 key cannot carry bit 31 and up: every wider layer keys in int64,
    # which holds all of an int64 activation's bits
    codes = np.random.default_rng(bits).integers(-16, 16, size=(3, 10))
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=bits, activation_signed=True)
    acts = np.random.default_rng(bits + 1).integers(-2**30, 2**30, size=(5, 10))
    for p in FUSE_DEPTHS:
        if bits % p == 0:
            rows = stage_rows(pack_rows(codes, 2, 5), cfg, T5, p=p)
            assert rows.base.dtype == rows.shifts.dtype == np.int64, p
            assert np.array_equal(pe_forward(rows, acts), acts @ codes.T), p
    narrow = stage_rows(pack_rows(codes, 2, 5), replace(cfg, activation_bits=31), T5, p=1)
    assert narrow.base.dtype == np.int32


@pytest.mark.parametrize("n, m, tables", [
    (3, 10, decompose_table(3, 10)),
    (2, 3, build_static_table(2, 3)),  # 8 * 15 = 120: int8 rows at p = 4, right under its max
    (2, 5, T5),  # 32 * 3 = 96 fits int8 but 32 * 15 = 480 does not: p = 4 widens to int16
])
def test_stage_rows_equal_a_brute_force_int64_build(n, m, tables):
    # rows are built in their final narrow dtype; the worst-case codes put the
    # largest entries of every depth in them, so a wrap in the doubling shows here
    half = 1 << (m - 1)
    codes = np.random.default_rng(m).integers(-half, half, size=(4, 2, n))  # (outputs, chunks, n)
    codes[0], codes[1] = -half, half - 1
    idx = pack_rows(codes.reshape(4, -1), n, m)
    cfg = MpuConfig(n=n, m=m, groups=1, group_vector_len=n, activation_bits=16, activation_signed=True)
    for p in FUSE_DEPTHS:
        keys = np.arange(1 << (n * p))
        fields = (keys[:, None] >> (p * np.arange(n))) & ((1 << p) - 1)  # (keys, n)
        bits = (fields[:, :, None] >> np.arange(p)) & 1  # (keys, n, planes)
        # plane j's selected-line entry, shifted into place: (chunks, keys, outputs, planes)
        shifted = np.einsum("oci,kij->ckoj", codes, bits) << np.arange(p)
        # one set of rows for the signed layer too: it reads its MSB group as offset
        # binary, through the flip and the start, not through rows of its own
        want = shifted.sum(axis=-1).reshape(-1, 4)
        rows = stage_rows(idx, cfg, tables, p=p)
        bound = n * half * ((1 << p) - 1)
        narrowest = next(d for d in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max)
        assert rows.rows.dtype == narrowest, (p, rows.rows.dtype)
        assert rows.base.shape == (1, 2, 1)
        assert np.array_equal(rows.base[0, :, 0], np.arange(2) << (n * p))
        assert rows.flip == sum(1 << (i * p + p - 1) for i in range(n))
        assert np.array_equal(rows.start, -(codes.sum(axis=(1, 2)) << (p - 1))[None])
        assert np.array_equal(rows.rows, want), p


def peak_codes(total: int, chunks: int, code: int) -> list[int]:
    """n=2 codes of ``chunks`` chunks whose same-sign peaks |c0 + c1| add up to ``total``."""
    pairs = [(code, code)] * (total // (2 * abs(code)))
    rem = total % (2 * abs(code))
    one = min(rem, abs(code))
    pairs.append((one, rem - one) if code > 0 else (-one, one - rem))
    pairs += [(0, 0)] * (chunks - len(pairs))
    return [c for pair in pairs for c in pair]


@pytest.mark.parametrize("deepest", FUSE_DEPTHS)
@pytest.mark.parametrize("signed", [False, True])
def test_chunk_sums_are_exact_at_their_per_chunk_bound(deepest, signed):
    # each output's chunk peaks add up to (2**15 - 1) // (2**deepest - 1), the
    # layer's reach, so at p = deepest the all-ones activations drive one group's
    # chunk sum to within a few units of 2**15 - 1, in int16 however many chunks
    # are zero.  At 16 bits the result's bound, (2**16 - 1) * reach < 2**31, is int32
    # over 1100 chunks, many zero, where chunks times the largest |entry| needs int64
    total = (2**15 - 1) // ((1 << deepest) - 1)
    for bits, chunks in ((8, total // 30 + 8), (16, 1100)):
        codes = np.array([peak_codes(total, chunks, -16), peak_codes(total, chunks, 15)])
        cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=bits, activation_signed=signed)
        lo, hi = activation_range(bits, signed)
        acts = np.random.default_rng(deepest).integers(lo, hi + 1, size=(6, 2 * chunks))
        acts[:4] = [[-1 if signed else hi], [lo], [hi], [lo + 1]]  # -1 and 2**bits - 1 select each peak on every plane
        idx = pack_rows(codes, 2, 5)
        want = acts @ codes.T  # oracle first
        peak = max(sum(max(abs(c0 * b0 + c1 * b1) for b0 in (0, 1) for b1 in (0, 1))
                       for c0, c1 in zip(row[::2], row[1::2])) for row in codes.tolist())
        assert peak == total
        for p in FUSE_DEPTHS:
            rows = stage_rows(idx, cfg, T5, p=p)
            assert np.array_equal(pe_forward(rows, acts), want), (bits, p)
            bound = ((1 << p) - 1) * peak
            assert rows.plane_dtype == next(d for d in (np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max)
            assert rows.out_dtype == np.int32, (bits, p)
            if p == deepest:
                assert 2**15 - 8 <= bound < 2**15 and rows.plane_dtype == np.int16
        if bits == 16:  # chunks times the largest |entry|, 32, past int32
            assert ((1 << bits) - 1) * chunks * 32 > 2**31 - 1


@pytest.mark.parametrize("per_tile", [1, 5, 17])
def test_any_split_of_cases_into_tiles_is_exact(monkeypatch, per_tile):
    # the kernel takes GATHER_ELEMS // (groups * chunks * outputs) cases per tile,
    # every plane group at once: 1 takes the 17 cases one at a time, 5 splits them
    # 5+5+5+2, 17 takes them all in one tile
    def budget(groups, outputs):  # 5 chunks per case
        monkeypatch.setattr(muxnet.mpu, "GATHER_ELEMS", per_tile * groups * 5 * outputs)

    rng = np.random.default_rng(9)
    for tables, m in ((T5, 5), (D10, 10)):
        for signed in (True, False):
            for bits in (3, 7, 8, 16):
                cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8,
                                activation_bits=bits, activation_signed=signed)
                lo, hi = activation_range(bits, signed)
                half = 1 << (m - 1)
                codes = rng.integers(-half, half, size=(6, 10))
                codes[0] = -half
                acts = rng.integers(lo, hi + 1, size=(17, 10))
                acts[1], acts[2] = lo, hi
                idx = pack_rows(codes, 2, m)
                want = acts @ codes.T  # oracle first
                # the same values in every integer width that holds them read alike
                widths = [acts.astype(d) for d in (np.int8, np.uint8, np.int16, np.uint16, np.int64)
                          if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max]
                for p in (1, 2, 4):
                    if bits % p:
                        continue
                    rows = stage_rows(idx, cfg, tables, p=p)
                    budget(bits // p, 6)
                    for x in widths:
                        assert np.array_equal(pe_forward(rows, x), want), \
                            (m, signed, bits, p, x.dtype)
                    assert np.array_equal(pe_forward(rows, acts[2]), want[2]), \
                        (m, signed, bits, p)
                # p = 1 rows, one output, and a case-wise base sliced with each tile
                case_codes = rng.integers(-half, half, size=(17, 10))
                case_codes[1] = -half
                budget(bits, 1)
                for x in widths:
                    got = batch_inner_product(pack_rows(case_codes, 2, m), x, cfg, tables)
                    assert np.array_equal(got, (case_codes * acts).sum(axis=1)), (m, signed, bits, x.dtype)


def test_no_cases_give_an_empty_result():
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=8, activation_signed=True)
    counters = CycleCount()
    none = np.zeros((0, 10), dtype=np.int8)
    got = pe_forward(stage_rows(pack_rows(np.ones((6, 10), dtype=np.int64), 2, 5), cfg, T5), none, counters=counters)
    assert got.shape == (0, 6) and got.dtype == np.int32
    got = batch_inner_product(np.zeros((0, 5), dtype=np.int64), none, cfg, T5, counters=counters)
    assert got.shape == (0,) and got.dtype == np.int32
    assert counters.as_tuple() == (0, 0, 0)


@pytest.mark.parametrize("m, tables", [(5, T5), (10, D10)])
def test_batch_counts_cases_of_their_own_chunks(m, tables):
    # the p=1 rows hold 7 * 5 flat chunks of one output, yet the call is 7 cases
    # of 5 chunks each: 2 tiles of 4-chunk tasks per case, not 9 per flat row
    cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8, activation_bits=8, activation_signed=True)
    rng = np.random.default_rng(m)
    half = 1 << (m - 1)
    codes = rng.integers(-half, half, size=(7, 10))
    acts = rng.integers(-128, 128, size=(7, 10))
    counters = CycleCount()
    got = batch_inner_product(pack_rows(codes, 2, m), acts, cfg, tables, counters=counters)
    assert np.array_equal(got, (codes * acts).sum(axis=1))
    want = datapath_cost(n=2, m=m, decomposed=m == 10, outputs=1, chunks=5, cases=7,
                         groups=8, group_vector_len=8, activation_bits=8)[:3]
    assert counters.as_tuple() == want


def test_fusion_depth_is_a_power_of_two_that_divides_the_bits():
    # rows deepen by doubling: p = 3 divides 6 bits but no doubling reaches it
    codes = np.random.default_rng(10).integers(-16, 16, size=(3, 4))
    idx = pack_rows(codes, 2, 5)
    for bits, p in ((6, 3), (8, 3), (8, 6), (8, 0)):
        cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=bits, activation_signed=True)
        with pytest.raises(ValueError, match="fusion depth"):
            stage_rows(idx, cfg, T5, p=p)
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=6, activation_signed=True)
    with pytest.raises(ValueError, match="not a power of two"):
        stage_rows(idx, cfg, T5, p=3)
    # p = 8, all of an 8-bit activation in one gather
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=8, activation_signed=True)
    acts = np.random.default_rng(11).integers(-128, 128, size=(5, 4))
    acts[0], acts[1] = -128, 127
    want = acts @ codes.T  # oracle first
    rows = stage_rows(idx, cfg, T5, p=8)
    assert rows.p == 8 and len(rows.shifts) == 1
    assert np.array_equal(pe_forward(rows, acts), want)
    assert np.array_equal(pe_forward(rows, acts.astype(np.int8)), want)  # 16-bit keys by word lookup


def test_pe_forward_counter_closed_form():
    # default shape: 8 groups of 8-wide vectors at n=2 -> 32 stage-2 MUXs per plane
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    counters = CycleCount()
    rng = np.random.default_rng(8)
    codes = rng.integers(-16, 16, size=(8, 8))
    acts = rng.integers(-128, 128, size=(1, 8))
    pe_forward(stage_rows(pack_rows(codes, 2, 5), cfg, T5), acts, counters=counters)
    # 8 tasks fill the 8 groups for one pass of 8 bit-planes
    assert counters.cycles == 8
    stage2_per_plane = (counters.mux_selects - 8 * 4 * 4) // 8
    assert stage2_per_plane == 32
    assert counters.memory_bits_read == 8 * 4 * 10


def test_counter_merge_is_summation():
    a = CycleCount(1, 2, 3)
    b = CycleCount(10, 20, 30)
    assert a.merge(b).as_tuple() == (11, 22, 33)


def test_plmu_width_bound_is_tight_enough():
    cfg = MpuConfig(n=2, m=3, groups=1, group_vector_len=4,
                    activation_bits=3, activation_signed=True)
    bound = plmu_width_bound(cfg)
    # worst case: all codes -4, all activations -4 -> +32; bound must hold it
    table = build_static_table(2, 3)
    w = [qwv([-4, -4], 3)] * 2
    got = bitserial_inner_product(w, [-4] * 4, cfg, table)
    assert got == 64
    assert 64 < (1 << (bound - 1))


def test_declared_accumulator_can_overflow():
    plmu = PlmuState(width=8)
    assert plmu.add(127) == 127  # the top of an 8-bit accumulator
    with pytest.raises(AccumulatorOverflow):
        PlmuState(width=8).add(128)


def test_shape_and_mode_validation():
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=4,
                    activation_bits=8, activation_signed=True)
    with pytest.raises(ShapeError):
        bitserial_inner_product([qwv([1, 2])], [1, 2, 3, 4], cfg, T5)
    with pytest.raises(ShapeError):
        bitserial_inner_product([qwv([1, 2])] * 2, [1, 2, 3], cfg, T5)
    with pytest.raises(ModeMismatch):
        bitserial_inner_product([qwv([1, 2], 4)] * 2, [1, 2, 3, 4], cfg, T5)
    with pytest.raises(ModeMismatch):  # refused once, as the rows are built
        stage_rows(np.zeros((1, 1), dtype=np.int64), cfg, D10)
    with pytest.raises(ShapeError):
        pe_forward(stage_rows(np.zeros((2, 3), dtype=np.int64), cfg, T5), np.zeros((1, 5)))
    with pytest.raises(ShapeError):  # case-wise rows of 3 cases, activations of 2
        batch_inner_product(np.zeros((3, 2), dtype=np.int64), np.zeros((2, 4)), cfg, T5)
    with pytest.raises(ShapeError):
        batch_inner_product(np.zeros(2, dtype=np.int64), np.zeros((1, 4)), cfg, T5)
    with pytest.raises(ShapeError, match=re.escape("line_indices must be (outputs, chunks), got (3,)")):
        stage_rows(np.zeros(3, dtype=np.int16), cfg, T5)


def test_config_validation():
    with pytest.raises(ValueError):
        MpuConfig(n=3, group_vector_len=8)
    with pytest.raises(ValueError):
        MpuConfig(n=0)
    for field in ("groups", "activation_bits"):
        with pytest.raises(ValueError, match="^groups and activation_bits must be >= 1$"):
            MpuConfig(**{field: 0})
    for n, length in ((2, 0), (2, -2), (1, 0)):  # divisible by n, yet no whole chunk per group
        with pytest.raises(ValueError, match=f"^group_vector_len {length} less than n={n}$"):
            MpuConfig(n=n, group_vector_len=length)
    assert MpuConfig(n=2, group_vector_len=2).chunks_per_group == 1


def refuse(*args):
    raise AssertionError("this key path must not run here")


@pytest.mark.parametrize("batch", [1, 4, 100])
def test_default_model_keys_every_layer_by_word_lookup(monkeypatch, batch):
    # n = 2 with 8-bit codes, uint8 into layer 0 and int8 after: every layer's
    # keys come from one lookup of each chunk's 16-bit word, none by shift and mask
    model = compile_model(default_float_model(seed=batch))
    engine = MpuEngine(model)
    u = np.random.default_rng(batch).integers(0, 256, size=(batch, model.input_len))
    u[0, :2] = 0, 255
    want = reference_logits(model, u)  # oracle first
    monkeypatch.setattr(muxnet.mpu, "_shift_keys", refuse)
    assert np.array_equal(engine.forward(u), want)


def test_a_wide_layer_fed_one_byte_codes_keys_by_shift_and_mask(monkeypatch):
    # validate lets a 16-bit layer follow an 8-bit one, whose int8 codes lack the
    # sign-extension bits 8..15 of a 16-bit code: a byte pair would read the next
    # activation's bits in their place, so k > 8 takes the shift/mask step
    codes = np.random.default_rng(12).integers(-16, 16, size=(6, 10))
    idx = pack_rows(codes, 2, 5)
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=16, activation_signed=True)
    acts = np.random.default_rng(13).integers(-128, 128, size=(17, 10)).astype(np.int8)
    acts[0], acts[1], acts[2, ::2] = -1, -128, -1
    want = acts.astype(np.int64) @ codes.T  # oracle first
    monkeypatch.setattr(muxnet.mpu, "_word_keys", refuse)
    for p in FUSE_DEPTHS:
        assert np.array_equal(pe_forward(stage_rows(idx, cfg, T5, p=p), acts), want), p


@pytest.mark.parametrize("dtype, other", [(np.int8, "_shift_keys"), (np.int16, "_word_keys")])
def test_non_contiguous_activations_are_exact_on_both_key_paths(monkeypatch, dtype, other):
    # a strided, a Fortran-order and a reversed view, taken 5 cases per tile
    codes = np.random.default_rng(14).integers(-16, 16, size=(6, 10))
    idx = pack_rows(codes, 2, 5)
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8, activation_bits=8, activation_signed=True)
    acts = np.random.default_rng(15).integers(-128, 128, size=(17, 10))
    acts[0], acts[1] = -128, 127
    want = acts @ codes.T  # oracle first
    wide = np.zeros((17, 20), dtype=dtype)
    wide[:, 1::2] = acts
    views = [wide[:, 1::2], np.asfortranarray(acts.astype(dtype)), acts[::-1].astype(dtype)[::-1]]
    monkeypatch.setattr(muxnet.mpu, other, refuse)
    for p in FUSE_DEPTHS:
        rows = stage_rows(idx, cfg, T5, p=p)
        monkeypatch.setattr(muxnet.mpu, "GATHER_ELEMS", 5 * (8 // p) * 5 * 6)
        for view in views:
            assert not view.flags.c_contiguous
            assert np.array_equal(pe_forward(rows, view), want), (p, view.strides)


def test_engines_share_one_cached_word_table(monkeypatch):
    # the tables are built once per (p, groups, flip) in a process, not per engine:
    # the default model's unsigned p = 4 layer and its signed p = 4 and p = 2
    # layers (whose top keys flip) take 128 KiB, 128 KiB and 256 KiB
    seen = []
    cached = muxnet.mpu._word_keys

    def spy(p, groups, flip):
        seen.append(cached(p, groups, flip))
        return seen[-1]

    monkeypatch.setattr(muxnet.mpu, "_word_keys", spy)
    model = compile_model(default_float_model(seed=3))
    u = np.random.default_rng(3).integers(0, 256, size=(2, model.input_len))
    MpuEngine(model).forward(u)
    first, seen[:] = seen[:], []
    MpuEngine(model).forward(u)
    assert len(seen) == len(model.layers)
    assert all(a is b for a, b in zip(first, seen))
    distinct = {id(t): t for t in seen}.values()
    assert sorted(t.nbytes for t in distinct) == [128 << 10, 128 << 10, 256 << 10]
    assert all(t.dtype == np.uint8 and not t.flags.writeable for t in distinct)
