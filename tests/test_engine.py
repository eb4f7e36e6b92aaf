"""Engine vs direct-MAC reference, counters, batching."""

import ast
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import muxnet.engine
import muxnet.reference
from muxnet.compiler import (
    ACT_NONE,
    ACT_RELU,
    KIND_CONV1D,
    KIND_LINEAR,
    CompiledModel,
    CompileConfig,
    FloatLayer,
    FloatModel,
    compile_model,
    default_float_model,
    deserialize_model,
    serialize_model,
)
from muxnet.costmodel import predict_model_costs
from muxnet.engine import MpuEngine, _patch_index
from muxnet.errors import BadArtifact, ShapeError
from muxnet.mpu import FUSE_DEPTHS, ROW_BUDGET_BYTES, MpuConfig, pe_forward, stage_rows
from muxnet.quantizer import activation_range
from muxnet.reference import reference_logits


def _random_inputs(rng, model, count):
    return rng.integers(0, 256, size=(count, model.input_len), dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_reference(seed):
    # the two routes share nothing past the compiled artifact: the engine
    # gathers table entries bit-plane by bit-plane, the reference multiplies
    model = compile_model(default_float_model(seed=seed))
    engine = MpuEngine(model)
    rng = np.random.default_rng(seed + 100)
    u = _random_inputs(rng, model, 6)
    assert np.array_equal(engine.forward(u), reference_logits(model, u))


def test_batch_equals_single():
    model = compile_model(default_float_model(seed=3))
    engine = MpuEngine(model)
    rng = np.random.default_rng(33)
    u = _random_inputs(rng, model, 4)
    batch = engine.forward(u)
    for i in range(4):
        assert np.array_equal(batch[i], engine.forward(u[i]))


def test_classify_and_float_logits_agree():
    model = compile_model(default_float_model(seed=4))
    engine = MpuEngine(model)
    rng = np.random.default_rng(44)
    u = _random_inputs(rng, model, 8)
    logits = engine.forward(u)
    last = model.layers[-1]
    floats = logits * (last.in_scale * last.weight_scales)  # raw accumulators in real units
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(floats, axis=1))
    assert np.array_equal(engine.classify(u), np.argmax(logits, axis=1))
    one = engine.classify(u[0])
    assert isinstance(one, int) and one == int(np.argmax(logits[0]))


def test_cycle_counters_match_shape_arithmetic():
    model = compile_model(default_float_model(seed=5))
    engine = MpuEngine(model)
    u = _random_inputs(np.random.default_rng(0), model, 1)
    engine.forward(u)
    prof = engine.layer_profile()
    cpt = engine.group_vector_len // model.n
    t = model.input_len
    for li, layer in enumerate(model.layers):
        cases = 1
        if layer.kind == "conv1d":
            t = (t - layer.kernel) // layer.stride + 1
            cases = t
        tiles = math.ceil(layer.chunks / cpt)
        tasks = cases * layer.out_channels * tiles
        want = math.ceil(tasks / engine.groups) * layer.activation_bits
        assert prof[li]["cycles"] == want
    assert engine.counters.cycles == sum(p["cycles"] for p in prof)


def test_memory_bits_exclude_padding_lanes():
    model = compile_model(default_float_model(seed=5))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(1), model, 1))
    t = model.input_len
    want = 0
    for layer in model.layers:
        cases = 1
        if layer.kind == "conv1d":
            t = (t - layer.kernel) // layer.stride + 1
            cases = t
        want += cases * layer.out_channels * layer.chunks * model.n * layer.mode_m
    assert engine.counters.memory_bits_read == want


def test_reset_counters():
    model = compile_model(default_float_model(seed=6))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(2), model, 1))
    assert engine.counters.cycles > 0
    engine.reset_counters()
    assert engine.counters.as_tuple() == (0, 0, 0)
    for p in engine.layer_profile():
        assert (p["cycles"], p["mux_selects"], p["memory_bits_read"]) == (0, 0, 0)


def test_tables_shared_across_same_mode_layers():
    model = compile_model(default_float_model(seed=7))
    engine = MpuEngine(model)
    assert engine.rows[0].tables is engine.rows[1].tables   # both conv, m=10
    assert engine.rows[2].tables is engine.rows[3].tables   # both linear, m=5
    assert engine.rows[0].tables is not engine.rows[2].tables


def test_hidden_activations_stay_in_declared_range():
    model = compile_model(default_float_model(seed=8))
    rng = np.random.default_rng(88)
    u = _random_inputs(rng, model, 3)
    for k in (1, 2, 3):
        prefix = CompiledModel(
            n=model.n, input_len=model.input_len, input_channels=model.input_channels,
            input_zero_point=model.input_zero_point, input_scale=model.input_scale,
            layers=model.layers[:k],
        )
        out = MpuEngine(prefix).forward(u)
        assert np.all(out >= 0)            # relu layers throughout the prefix
        assert np.all(out <= 127)
        assert np.any(out > 0)             # bounds are not so loose everything dies


def test_input_shape_rejected():
    model = compile_model(default_float_model(seed=9))
    engine = MpuEngine(model)
    with pytest.raises(ShapeError):
        engine.forward(np.zeros(model.input_len - 1, dtype=np.int64))
    with pytest.raises(ShapeError):
        engine.forward(np.zeros((2, model.input_len + 3), dtype=np.int64))


def test_input_outside_layer0_range_rejected():
    # the datapath would mask these to their low 8 bits, the reference not;
    # the input is checked in the dtype it comes in, before it is narrowed
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    for value, dtype in ((300, np.int64), (-1, np.int64), (256, np.int16), (-1, np.int8)):
        u = np.full(model.input_len, value, dtype=dtype)
        with pytest.raises(ValueError, match="outside layer 0's range"):
            engine.forward(u)
        with pytest.raises(ValueError):
            engine.forward(np.stack([np.zeros_like(u), u]))
    edges = np.stack([np.zeros(model.input_len, dtype=np.int64), np.full(model.input_len, 255)])
    assert np.array_equal(engine.forward(edges), reference_logits(model, edges))


def test_input_that_is_not_integral_is_refused_by_name():
    # a cast would truncate u + 0.9 to u's logits and read nan as some integer;
    # every value that int64 does not hold exactly is refused, with no cast warning
    model = compile_model(default_float_model(seed=0, input_len=80))
    engine = MpuEngine(model)
    u = np.random.default_rng(5).integers(1, 255, size=(2, model.input_len))
    with pytest.raises(ValueError, match="is not an integer"):
        engine.forward(u + 0.9)
    for bad in (0.9, -0.5, 254.5, np.nan, np.inf, -np.inf, 2.0**63, -2.0**64):
        v = u.astype(np.float64)
        v[1, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"value {bad} is not an integer")):
                engine.forward(v)
            with pytest.raises(ValueError, match=re.escape(f"value {bad} is not an integer")):
                engine.forward(v[1])
    assert np.array_equal(engine.forward(u.astype(np.float64)), reference_logits(model, u))


@pytest.mark.parametrize("bits", [8, 16])
def test_activations_travel_at_their_width(monkeypatch, bits):
    # the input is carried at layer 0's width and each hidden layer's codes at
    # their clamp's, never widened; equal values in any integer dtype, or as
    # integral floats, give the reference's logits
    model = compile_model(default_float_model(seed=6, input_len=80), CompileConfig(activation_bits=bits))
    engine = MpuEngine(model)
    u = np.random.default_rng(66).integers(0, 1 << bits, size=(3, model.input_len))
    u[0, :2] = 0, (1 << bits) - 1
    want = reference_logits(model, u)
    seen = []

    def recorded(rows, acts, *args, **kwargs):
        seen.append(acts.dtype)
        return pe_forward(rows, acts, *args, **kwargs)

    monkeypatch.setattr(muxnet.engine, "pe_forward", recorded)
    for dtype in (np.uint8, np.int16, np.uint16, np.int32, np.uint64, np.int64, np.float64):
        if dtype == np.float64 or np.iinfo(dtype).max >= (1 << bits) - 1:
            assert np.array_equal(engine.forward(u.astype(dtype)), want), dtype
    narrow = (np.uint8, np.int8) if bits == 8 else (np.uint16, np.int16)
    assert seen[:len(model.layers)] == [narrow[0]] + [narrow[1]] * (len(model.layers) - 1)
    assert len(set(seen)) == 2


def test_empty_batch_gives_no_logits():
    # every reshape is given its width, so a (0, V) batch runs both routes
    # through every layer on no rows, and counts nothing
    model = compile_model(default_float_model(seed=5))
    engine = MpuEngine(model)
    u = np.zeros((0, model.input_channels * model.input_len))
    for got in (engine.forward(u), reference_logits(model, u)):
        assert got.shape == (0, model.class_count) and got.dtype == np.int64
    assert engine.counters.as_tuple() == (0, 0, 0)
    assert all(row.cycles == row.mux_selects == row.memory_bits_read == 0
               for row in predict_model_costs(model, batch=0))


def test_batch_100_forward_peak_memory_is_bounded():
    # the kernel tiles its cases at GATHER_ELEMS gathered entries, activations
    # travel at their width and no layer's accumulator outlives its finish, so
    # one batch-100 forward on the default model peaks at layer 0's int64 result
    # plus one tile: 3.35 MB, its logits included
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    u = _random_inputs(np.random.default_rng(0), model, 100)
    tracemalloc.start()
    try:
        out = engine.forward(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (100, model.class_count)
    assert peak <= 3_400_000


def test_engine_init_peak_memory_is_bounded():
    # a monolithic table is built at its entries' width (int8 at n = 2, m = 5), so a
    # layer's p = 1 lines are gathered narrow, with no copy of the table: on the
    # 1280-input model L2's gather is 0.33 MB, not 1.3 MB as from int32, and init
    # peaks at 2.08 MB, its rows included
    model = compile_model(default_float_model(0, input_len=1280))
    tracemalloc.start()
    try:
        engine = MpuEngine(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.rows[2].tables.lines.dtype == engine.rows[2].rows.dtype == np.int8
    assert peak <= 2_200_000


def test_layer_profile_reports_storage_and_cycles():
    model = compile_model(default_float_model(seed=10))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(3), model, 2))
    prof = engine.layer_profile()
    assert [p["kind"] for p in prof] == ["conv1d", "conv1d", "linear", "linear"]
    assert all(p["cycles"] > 0 for p in prof)
    for p, layer in zip(prof, model.layers):
        assert p["storage_bits"] == layer.out_channels * layer.chunks * model.n * layer.mode_m


def test_narrow_table_budget_forces_monolithic_conv():
    cfg = CompileConfig(table_budget_bits=20)
    model = compile_model(default_float_model(seed=11), cfg)
    assert not any(layer.decomposed for layer in model.layers)
    engine = MpuEngine(model)
    u = _random_inputs(np.random.default_rng(4), model, 2)
    assert np.array_equal(engine.forward(u), reference_logits(model, u))


def test_layer_calls_pass_their_counter_by_keyword(monkeypatch):
    # the benchmark tracer wraps muxnet.engine.pe_forward and reads each
    # call's counters= delta as that layer's live counts
    model = compile_model(default_float_model(seed=12))
    engine = MpuEngine(model)
    deltas = []

    def traced(*args, **kwargs):
        assert "counters" in kwargs
        counters = kwargs["counters"]
        before = counters.as_tuple()
        out = pe_forward(*args, **kwargs)
        deltas.append(tuple(a - b for a, b in zip(counters.as_tuple(), before)))
        return out

    monkeypatch.setattr(muxnet.engine, "pe_forward", traced)
    engine.forward(_random_inputs(np.random.default_rng(5), model, 2))
    rows = predict_model_costs(model, engine.groups, engine.group_vector_len, batch=2)
    assert deltas == [(r.cycles, r.mux_selects, r.memory_bits_read) for r in rows]


def test_resident_rows_take_the_deepest_fusion_that_fits():
    # built once at init: the largest p dividing activation_bits whose rows
    # fit ROW_BUDGET_BYTES (p = 1 always); the 616-chunk linear layer fits p = 2 in int8
    # rows, but its int16 rows at p = 4 do not
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    assert [rows.p for rows in engine.rows] == [4, 4, 2, 4]
    for li, (layer, rows) in enumerate(zip(model.layers, engine.rows)):
        assert rows.p == 1 or rows.rows.nbytes <= ROW_BUDGET_BYTES
        cfg = MpuConfig(n=model.n, m=layer.mode_m, activation_bits=layer.activation_bits,
                        activation_signed=layer.activation_signed)
        for p in FUSE_DEPTHS:
            if p > rows.p and layer.activation_bits % p == 0:
                deeper = stage_rows(layer.line_indices, cfg, rows.tables, p=p)
                assert deeper.rows.nbytes > ROW_BUDGET_BYTES, (li, p)
    # several engines stay alive at once in a compile sweep; a signed layer reads
    # its MSB group as offset binary, so it holds one set of rows, as an unsigned one does
    assert sum(rows.rows.nbytes for rows in engine.rows) == 536_576


@pytest.mark.parametrize("input_len, conv_m", [(320, 10), (1280, 6)])
def test_resident_rows_are_row_major_and_read_only(input_len, conv_m):
    # one key's gather reads one contiguous run of `outputs` entries
    model = compile_model(default_float_model(seed=0, input_len=input_len), CompileConfig(conv_m=conv_m))
    for li, rows in enumerate(MpuEngine(model).rows):
        assert rows.rows.flags.c_contiguous, li
        assert not rows.rows.flags.writeable, li


@pytest.mark.parametrize("settings, group_vector_len", [
    ({"activation_bits": 3}, 8),
    ({"activation_bits": 7}, 8),
    ({"activation_bits": 16}, 8),
    ({"n": 1}, 8),
    ({"n": 3, "linear_m": 4}, 6),  # n*5 = 15 index bits would need an odd split
])
def test_other_widths_and_chunk_sizes_match_reference(settings, group_vector_len):
    model = compile_model(default_float_model(seed=4, input_len=80), CompileConfig(**settings))
    engine = MpuEngine(model, group_vector_len=group_vector_len)
    first = model.layers[0]
    lo, hi = activation_range(first.activation_bits, first.activation_signed)
    u = np.random.default_rng(1).integers(lo, hi + 1, size=(3, model.input_len))
    u[0] = hi
    want = reference_logits(model, u)
    assert np.array_equal(engine.forward(u), want)
    for i in range(u.shape[0]):
        assert np.array_equal(engine.forward(u[i]), want[i]), i


# (input channels, input length, [(out channels, kernel, stride), ...]) of the conv layers
CONV_GEOMETRIES = [
    (1, 20, [(4, 3, 1), (3, 2, 2)]),   # stride 1, then stride 2 over a conv output
    (3, 17, [(4, 5, 3), (2, 2, 1)]),   # stride 3 over three input channels
    (3, 9, [(4, 9, 1)]),               # kernel == input length: one window
    (1, 16, [(2, 2, 3), (3, 1, 2)]),   # stride > kernel, on the input and on a conv output
    (3, 5, []),                        # a linear first layer over 3 channels, fan-in 15 (padded)
]


@pytest.mark.parametrize("channels, length, convs", CONV_GEOMETRIES)
def test_conv_patch_index_cuts_the_reference_windows(channels, length, convs):
    rng = np.random.default_rng(length)
    c, t = channels, length
    layers = []
    for out_ch, kernel, stride in convs:
        # the index reproduces x[:, t*stride : t*stride + kernel], flattened channel-major,
        # from either storage order
        x = rng.integers(0, 1000, size=(c, t))
        t_out = (t - kernel) // stride + 1
        want = np.stack([x[:, i * stride:i * stride + kernel].ravel() for i in range(t_out)])
        for stored, time_major in ((x, False), (x.T, True)):
            index = _patch_index(c, t, kernel, stride, time_major=time_major, width=c * kernel + 3)
            assert np.array_equal(stored.ravel()[index[:, :c * kernel]], want), (kernel, stride, time_major)
            assert np.all(index[:, c * kernel:] == 0)  # pad columns read position 0, always in range
        layers.append(FloatLayer(kind=KIND_CONV1D, stride=stride,
                                 weight=rng.normal(0.0, 0.5, size=(out_ch, c, kernel)),
                                 bias=rng.normal(0.0, 0.05, size=out_ch)))
        c, t = out_ch, t_out
    layers.append(FloatLayer(kind=KIND_LINEAR, weight=rng.normal(0.0, 0.5, size=(3, c * t)),
                             activation=ACT_NONE))
    model = compile_model(FloatModel(layers=layers, input_len=length, input_channels=channels))
    engine = MpuEngine(model)
    u = rng.integers(0, 256, size=(5, channels * length))
    for batch in (u[:1], u):
        assert np.array_equal(engine.forward(batch), reference_logits(model, batch))
    assert np.array_equal(engine.forward(u[3]), reference_logits(model, u[3]))
    # a linear layer is one window spanning its whole input, flattened channel-major
    x = np.arange(c * t).reshape(c, t)
    for stored, time_major in ((x, False), (x.T, True)):
        index = _patch_index(c, t, t, 1, time_major=time_major, width=c * t + 1)
        assert np.array_equal(stored.ravel()[index[:, :c * t]], x.reshape(1, -1)), time_major
        assert np.all(index[:, c * t:] == 0)
    # the engine's own index of each layer covers its chunk padding
    for li, (layer, index) in enumerate(zip(model.layers, engine._patches)):
        assert index.shape[1] == layer.chunks * model.n, li
        assert np.all(index[:, layer.fan_in:] == 0), li


def _int64_decode(indices, n, m):
    """Line indices decoded in int64: every field widened, then sign-folded by ``np.where``."""
    idx = np.asarray(indices, dtype=np.int64)
    fields = (idx[..., None] >> (m * np.arange(n, dtype=np.int64))) & ((1 << m) - 1)
    codes = np.where(fields >= 1 << (m - 1), fields - (1 << m), fields)
    return codes.reshape(*idx.shape[:-1], idx.shape[-1] * n)


def test_decode_line_indices_equals_the_int64_decode():
    rng = np.random.default_rng(14)
    dtypes = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
    for n in range(1, 5):
        for m in range(2, 21):
            if n * m > 63:
                continue  # no line index is wider than int64
            half = 1 << (m - 1)
            fields = rng.integers(0, 1 << m, size=(16, 3, n))
            # the codes half - 1, -half, -1 and 0 in every field, then mixed
            fields[:4] = np.array([half - 1, half, 2 * half - 1, 0])[:, None, None]
            fields[4, :, ::2], fields[4, :, 1::2] = half, half - 1
            index = (fields.astype(np.uint64) << (m * np.arange(n, dtype=np.uint64))).sum(axis=-1)
            want = _int64_decode(index, n, m)
            assert want.min() == -half and want.max() == half - 1
            for dtype in dtypes:
                if np.iinfo(dtype).max < (1 << (n * m)) - 1:
                    continue
                got = muxnet.reference.decode_line_indices(index.astype(dtype), n, m)
                assert got.dtype == (np.int8 if m <= 7 else np.int16 if m <= 15 else np.int32), (n, m)
                assert np.array_equal(got, want), (n, m, dtype)


def test_reference_logits_peak_memory_is_bounded():
    # the 1280-input model's L2 holds 32 x 5072 codes; decoded at their width
    # and widened only in einsum's buffers, a row's forward stays under what an
    # int64 copy of those codes alone takes
    model = compile_model(default_float_model(seed=3, input_len=1280))
    widest = max(layer.out_channels * layer.chunks * model.n for layer in model.layers)
    u = np.random.default_rng(3).integers(0, 256, size=model.input_len)
    want = reference_logits(model, u)
    tracemalloc.start()
    try:
        got = reference_logits(model, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 8 * widest


def test_reference_imports_nothing_of_the_datapath():
    # the reference checks the table route only while it shares none of its code
    tree = ast.parse(Path(muxnet.reference.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "numpy", "numpy.lib.stride_tricks", ".compiler"}


@st.composite
def random_models(draw):
    """``CompileConfig`` fields and a float model: 0-2 conv then 1-2 linear layers, each hidden one ReLU or none."""
    n, bits = draw(st.integers(1, 4)), draw(st.integers(2, 16))
    # n = 4 stops at m = 8: its m = 10 halves are 2**20-line tables, 0.5 s to build
    conv_m, linear_m = (draw(st.integers(2, 8 if n == 4 else 10)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels, length = draw(st.integers(1, 2)), draw(st.integers(4, 24))
    c, t, layers = channels, length, []
    for _ in range(draw(st.integers(0, 2))):
        out, kernel, stride = draw(st.integers(1, 4)), draw(st.integers(1, min(5, t))), draw(st.integers(1, 3))
        layers.append(FloatLayer(KIND_CONV1D, rng.normal(0, (c * kernel) ** -0.5, (out, c, kernel)),
                                 rng.normal(0, 0.05, out), stride, draw(st.sampled_from([ACT_RELU, ACT_NONE]))))
        c, t = out, (t - kernel) // stride + 1
    widths = [c * t, *(draw(st.integers(1, 8)) for _ in range(draw(st.integers(0, 1)))), draw(st.integers(1, 6))]
    for li, (fan_in, out) in enumerate(zip(widths, widths[1:])):
        act = ACT_NONE if li == len(widths) - 2 else draw(st.sampled_from([ACT_RELU, ACT_NONE]))
        layers.append(FloatLayer(KIND_LINEAR, rng.normal(0, fan_in ** -0.5, (out, fan_in)),
                                 rng.normal(0, 0.05, out), activation=act))
    fields = {"n": n, "conv_m": conv_m, "linear_m": linear_m, "activation_bits": bits,
              "input_zero_point": 1 << (bits - 1)}
    return fields, FloatModel(layers, input_len=length, input_channels=channels)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(random_models(), st.integers(1, 4), st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
def test_random_architectures_hold_both_fixed_points(drawn, chunks_per_group, batch, seed):
    # through compile and a .muxn round trip, forward equals the reference and
    # each layer's live counters equal the cost model's, at this batch and
    # group_vector_len; a setting or checkpoint that is refused is no example
    fields, float_model = drawn
    try:
        cfg = CompileConfig(**fields)
    except ValueError:
        assume(False)
    try:
        compiled = compile_model(float_model, cfg)
    except BadArtifact:
        assume(False)
    blob = serialize_model(compiled)
    model = deserialize_model(blob)
    assert serialize_model(model) == blob
    group_vector_len = chunks_per_group * model.n
    engine = MpuEngine(model, group_vector_len=group_vector_len)
    lo, hi = activation_range(model.layers[0].activation_bits, False)
    u = np.random.default_rng(seed).integers(lo, hi + 1, size=(batch, model.input_channels * model.input_len))
    u[:1, ::2] = hi
    assert np.array_equal(engine.forward(u), reference_logits(model, u))
    want = predict_model_costs(model, engine.groups, group_vector_len, batch)
    assert [(row["cycles"], row["mux_selects"], row["memory_bits_read"]) for row in engine.layer_profile()] \
        == [(row.cycles, row.mux_selects, row.memory_bits_read) for row in want]
