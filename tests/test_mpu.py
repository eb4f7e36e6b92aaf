"""Two-stage MUX datapath against the direct-MAC route.

The MUX side may only gather table entries and shift-add; the oracle side
multiplies. Keeping both routes alive is the point of every test here.
"""

import io

import numpy as np
import pytest

from muxnet.errors import AccumulatorOverflow, BadLineIndex, ModeMismatch, ShapeError
from muxnet.mpu import (
    CycleCount,
    MpuConfig,
    batch_inner_product,
    bitserial_inner_product,
    pe_forward,
    plmu_width_bound,
    stage1_select,
    stage2_select,
)
from muxnet.quantizer import QParams, QuantizedWeightVector
from muxnet.reference import reference_inner_product
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


def test_stage1_rejects_bad_index():
    with pytest.raises(BadLineIndex):
        stage1_select(T5, 1 << 10)


def test_scalar_exhaustive_n2_m2_signed():
    table = build_static_table(2, 2)
    cfg = MpuConfig(n=2, m=2, groups=1, group_vector_len=2,
                    activation_bits=3, activation_signed=True)
    for line in range(table.line_count):
        codes = table.codes_of_line(line)
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
    rng = np.random.default_rng(7)
    for tables, m in ((T5, 5), (D10, 10)):
        for signed in (True, False):
            cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8,
                            activation_bits=8, activation_signed=signed)
            lo, hi = (-128, 128) if signed else (0, 256)
            codes = rng.integers(-(1 << (m - 1)), 1 << (m - 1), size=(6, 10))  # 6 outputs, fan-in 10
            acts = rng.integers(lo, hi, size=(17, 10))
            got = pe_forward(pack_rows(codes, 2, m), acts, cfg, tables)
            assert np.array_equal(got, acts @ codes.T), (m, signed)
            single = pe_forward(pack_rows(codes, 2, m), acts[0], cfg, tables)
            assert single.shape == (6,)
            assert np.array_equal(single, got[0])


def test_pe_forward_counter_closed_form():
    # default shape: 8 groups of 8-wide vectors at n=2 -> 32 stage-2 MUXs per plane
    cfg = MpuConfig(n=2, m=5, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    counters = CycleCount()
    rng = np.random.default_rng(8)
    codes = rng.integers(-16, 16, size=(8, 8))
    acts = rng.integers(-128, 128, size=(1, 8))
    pe_forward(pack_rows(codes, 2, 5), acts, cfg, T5, counters=counters)
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
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=2,
                    activation_bits=8, activation_signed=True, accumulator_bits=8)
    with pytest.raises(AccumulatorOverflow):
        bitserial_inner_product([qwv([-16, -16])], [-128, -128], cfg, T5)


def test_shape_and_mode_validation():
    cfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=4,
                    activation_bits=8, activation_signed=True)
    with pytest.raises(ShapeError):
        bitserial_inner_product([qwv([1, 2])], [1, 2, 3, 4], cfg, T5)
    with pytest.raises(ShapeError):
        bitserial_inner_product([qwv([1, 2])] * 2, [1, 2, 3], cfg, T5)
    with pytest.raises(ModeMismatch):
        bitserial_inner_product([qwv([1, 2], 4)] * 2, [1, 2, 3, 4], cfg, T5)
    with pytest.raises(ModeMismatch):
        pe_forward(np.zeros((1, 1), dtype=np.int64), np.zeros((1, 2)), cfg, D10)
    with pytest.raises(ShapeError):
        pe_forward(np.zeros((2, 3), dtype=np.int64), np.zeros((1, 5)), cfg, T5)


def test_config_validation():
    with pytest.raises(ValueError):
        MpuConfig(n=3, group_vector_len=8)
    with pytest.raises(ValueError):
        MpuConfig(n=0)
