"""Compiler: BN folding, quantization plumbing, containers, validity rules."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxnet import compiler
from muxnet.cli import EXIT_INPUT, main
from muxnet.compiler import (
    _HEADER,
    _LAYER_HEADER,
    ACT_NONE,
    BatchNormParams,
    CompileConfig,
    FloatLayer,
    FloatModel,
    compile_model,
    default_float_model,
    deserialize_float_model,
    deserialize_model,
    fold_batchnorm,
    load_float_model,
    load_model,
    quantize_input,
    save_float_model,
    save_model,
    serialize_float_model,
    serialize_model,
    validate,
)
from muxnet.costmodel import model_cost_report, predict_model_costs
from muxnet.engine import MpuEngine
from muxnet.errors import (
    BadArtifact,
    BadBNParams,
    CorruptArtifact,
    OddSplitUnsupported,
    ShapeError,
    UnsupportedLayer,
)
from muxnet.quantizer import quantization_error
from muxnet.reference import decode_line_indices, float_forward, reference_logits
from muxnet.static_table import unpack_line_codes


def test_fold_identity_bn():
    layer = FloatLayer(kind="conv1d", weight=np.ones((1, 1, 2)), bias=np.array([0.5]),
                       bn=BatchNormParams(gamma=np.ones(1), beta=np.zeros(1),
                                          mean=np.zeros(1), var=np.ones(1), eps=0.0 + 1e-12))
    folded = fold_batchnorm(layer)
    assert np.allclose(folded.weight, layer.weight, atol=1e-9)
    assert np.allclose(folded.bias, [0.5], atol=1e-9)
    assert folded.bn is None


def test_fold_direct_substitution():
    layer = FloatLayer(kind="conv1d", weight=np.ones((1, 1, 1)), bias=np.zeros(1),
                       bn=BatchNormParams(gamma=np.array([2.0]), beta=np.array([1.0]),
                                          mean=np.zeros(1), var=np.ones(1), eps=1e-12))
    folded = fold_batchnorm(layer)
    assert np.allclose(folded.weight, [[[2.0]]], atol=1e-9)
    assert np.allclose(folded.bias, [1.0], atol=1e-9)


def test_fold_matches_direct_bn_numerically():
    rng = np.random.default_rng(11)
    model = FloatModel(layers=[FloatLayer(
        kind="conv1d",
        weight=rng.normal(size=(4, 2, 3)),
        bias=rng.normal(size=4),
        stride=1,
        activation=ACT_NONE,
        bn=BatchNormParams(gamma=rng.uniform(0.5, 2, 4), beta=rng.normal(size=4),
                           mean=rng.normal(size=4), var=rng.uniform(0.5, 2, 4)),
    )], input_len=16, input_channels=2)
    folded = FloatModel(layers=[fold_batchnorm(model.layers[0])],
                        input_len=16, input_channels=2)
    for _ in range(100):
        x = rng.normal(size=(2, 16))
        a = float_forward(model, x)   # BN applied by definition
        b = float_forward(folded, x)  # folded weights only
        assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, np.max(np.abs(a)))


def test_bad_bn_params():
    with pytest.raises(BadBNParams):
        fold_batchnorm(FloatLayer(
            kind="conv1d", weight=np.ones((1, 1, 1)),
            bn=BatchNormParams(gamma=np.ones(1), beta=np.zeros(1),
                               mean=np.zeros(1), var=np.array([-2.0]), eps=1e-5)))
    with pytest.raises(BadBNParams):
        fold_batchnorm(FloatLayer(
            kind="conv1d", weight=np.ones((2, 1, 1)),
            bn=BatchNormParams(gamma=np.ones(1), beta=np.zeros(1),
                               mean=np.zeros(1), var=np.ones(1))))


def test_layer_validation():
    with pytest.raises(UnsupportedLayer):
        FloatLayer(kind="conv2d", weight=np.ones((1, 1, 1)))
    with pytest.raises(ShapeError):
        FloatLayer(kind="linear", weight=np.ones((2, 3, 4)))
    with pytest.raises(ShapeError):
        FloatLayer(kind="linear", weight=np.ones((2, 3)), bias=np.ones(3))
    with pytest.raises(ShapeError):
        FloatModel(layers=[FloatLayer(kind="linear", weight=np.ones((2, 3)))],
                   input_len=4)
    with pytest.raises(UnsupportedLayer):
        FloatModel(layers=[FloatLayer(kind="conv1d", weight=np.ones((1, 1, 9)))],
                   input_len=4)


def test_lossless_grid_single_layer():
    # weights on the 0.5-grid with max |code| = 8 = 2**(m-2): the default
    # search grid's top endpoint is exactly 0.5, so quantization is lossless
    # and the dequantized logits equal the float logits exactly
    codes = np.array([[3, -8, 5, 1], [7, 2, -6, 4]], dtype=np.float64)
    weights = 0.5 * codes
    model = FloatModel(layers=[FloatLayer(kind="linear", weight=weights,
                                          bias=None, activation=ACT_NONE)],
                       input_len=4)
    cfg = CompileConfig(n=2, linear_m=5, input_scale=1.0, input_zero_point=0)
    compiled = compile_model(model, cfg)
    u = np.array([3, 0, 255, 17], dtype=np.int64)
    logits = reference_logits(compiled, u)
    last = compiled.layers[-1]
    dequant = logits * (last.in_scale * last.weight_scales)
    assert np.array_equal(dequant, weights @ u.astype(np.float64))


def test_compiled_line_indices_roundtrip_to_codes():
    model = default_float_model(seed=2)
    compiled = compile_model(model)
    for layer in compiled.layers:
        codes = decode_line_indices(layer.line_indices, compiled.n, layer.mode_m)
        # padding lanes beyond fan_in must be zero codes
        assert np.all(codes[:, layer.fan_in:] == 0)
        for c in range(layer.out_channels):
            for k in range(layer.chunks):
                chunk = unpack_line_codes(int(layer.line_indices[c, k]),
                                          compiled.n, layer.mode_m)
                assert list(chunk) == codes[c, k * compiled.n:(k + 1) * compiled.n].tolist()


def test_weight_memory_accounting():
    compiled = compile_model(default_float_model(seed=2))
    rows = predict_model_costs(compiled)
    for layer, row in zip(compiled.layers, rows):
        assert row.weight_bits == layer.out_channels * layer.chunks * compiled.n * layer.mode_m
    assert model_cost_report(compiled).weight_memory_bits == sum(r.weight_bits for r in rows)


def test_conv_uses_per_channel_scales():
    compiled = compile_model(default_float_model(seed=3))
    conv = compiled.layers[0]
    assert len(set(conv.weight_scales.tolist())) > 1
    linear = compiled.layers[2]
    assert len(set(linear.weight_scales.tolist())) == 1


def test_serialize_roundtrip_identity():
    compiled = compile_model(default_float_model(seed=4))
    blob = serialize_model(compiled)
    back = deserialize_model(blob)
    assert serialize_model(back) == blob
    assert back.n == compiled.n and back.class_count == compiled.class_count
    for a, b in zip(compiled.layers, back.layers):
        assert np.array_equal(a.line_indices, b.line_indices)
        assert np.array_equal(a.bias_q, b.bias_q)
        assert np.array_equal(a.mult, b.mult)
        assert (a.kind, a.mode_m, a.decomposed, a.shift, a.requant) == \
               (b.kind, b.mode_m, b.decomposed, b.shift, b.requant)
        assert np.array_equal(a.weight_scales, b.weight_scales)


def scalar_choose_prescale(weights, m, search_grid):
    """The pre-scale search one grid point at a time; the first minimum wins."""
    w = np.asarray(weights, dtype=np.float64)
    grid = sorted(float(s) for s in np.ravel(search_grid))
    if not np.any(w):
        return grid[0]
    errs = [quantization_error(w, m, s) for s in grid]
    return grid[errs.index(min(errs))]


def _scalar_search_bytes(monkeypatch, model, cfg=CompileConfig()):
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "choose_prescale", scalar_choose_prescale)
        return serialize_model(compile_model(model, cfg))


def test_a_zero_output_channel_compiles_as_the_scalar_search_does(monkeypatch):
    model = default_float_model(0)
    model.layers[0].weight[3] = 0  # an all-zero channel searches the one-point grid [1.0]
    compiled = compile_model(model)
    assert compiled.layers[0].weight_scales[3] == 1.0
    assert serialize_model(compiled) == _scalar_search_bytes(monkeypatch, model)


@pytest.mark.parametrize("input_len, conv_m", [(320, 10), (640, 6), (640, 10), (1280, 6)])  # default first
def test_artifact_bytes_match_the_scalar_prescale_search(monkeypatch, input_len, conv_m):
    model = default_float_model(0, input_len=input_len)
    cfg = CompileConfig(conv_m=conv_m)
    assert serialize_model(compile_model(model, cfg)) == _scalar_search_bytes(monkeypatch, model, cfg)


def test_compile_is_deterministic():
    a = serialize_model(compile_model(default_float_model(seed=5)))
    b = serialize_model(compile_model(default_float_model(seed=5)))
    assert a == b


def test_deserialize_rejects_bad_magic_and_version():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    with pytest.raises(BadArtifact):
        deserialize_model(b"XXXX" + blob[4:])
    with pytest.raises(BadArtifact):
        deserialize_model(blob[:4] + b"\xff\xff" + blob[6:])
    with pytest.raises(BadArtifact):
        deserialize_model(blob + b"\x00")  # trailing bytes


def _patched(blob: bytes, fmt, offset: int, field: int, value: int) -> bytes:
    values = list(fmt.unpack_from(blob, offset))
    values[field] = value
    return blob[:offset] + fmt.pack(*values) + blob[offset + fmt.size:]


def _layer_offsets(blob: bytes) -> list[int]:
    """Byte offset of every layer header in a .muxn blob."""
    _, _, n, layer_count = _HEADER.unpack_from(blob)[:4]
    offsets, at = [], _HEADER.size
    for _ in range(layer_count):
        offsets.append(at)
        fields = _LAYER_HEADER.unpack_from(blob, at)
        mode_m, out_ch, chunks = fields[1], fields[8], fields[10]
        at += _LAYER_HEADER.size + out_ch * (chunks * math.ceil(n * mode_m / 8) + 8 + 4 + 8)
    return offsets


def test_deserialize_rejects_bad_conv_geometry():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    layer0 = _HEADER.size
    bad = {
        "conv stride 0": _patched(blob, _LAYER_HEADER, layer0, 5, 0),
        "conv kernel 7 -> 3": _patched(blob, _LAYER_HEADER, layer0, 6, 3),
        "conv kernel 0": _patched(blob, _LAYER_HEADER, layer0, 6, 0),
        "input_len 5 < kernel": _patched(blob, _HEADER, 0, 5, 5),
        "input_len 300: linear fan-in off the chain": _patched(blob, _HEADER, 0, 5, 300),
        "input_channels 2": _patched(blob, _HEADER, 0, 6, 2),
    }
    for data in bad.values():
        with pytest.raises(BadArtifact):
            deserialize_model(data)
    # the header rewrite itself is lossless
    assert _patched(blob, _LAYER_HEADER, layer0, 5, 2) == blob


def test_deserialize_rejects_broken_activation_chain():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    layer0, layer1, layer2, layer3 = _layer_offsets(blob)
    flags = 2  # field index of the flags byte: requant 1, signed 2, decomposed 4
    bad = {
        "requant cleared on layer 1": _patched(
            blob, _LAYER_HEADER, layer1, flags, _LAYER_HEADER.unpack_from(blob, layer1)[flags] & ~1),
        "signed inputs on layer 0": _patched(
            blob, _LAYER_HEADER, layer0, flags, _LAYER_HEADER.unpack_from(blob, layer0)[flags] | 2),
        "2-bit inputs on layer 2 after 8-bit outputs": _patched(blob, _LAYER_HEADER, layer2, 4, 2),
    }
    for what, data in bad.items():
        with pytest.raises(BadArtifact):
            deserialize_model(data)
    # widening is allowed: the raw last layer reads 9-bit inputs
    assert deserialize_model(_patched(blob, _LAYER_HEADER, layer3, 4, 9)).layers[3].activation_bits == 9


def test_deserialize_refuses_a_zero_index_width_before_reading_indices():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    layer0 = _HEADER.size
    huge = _patched(blob, _LAYER_HEADER, layer0, 10, 2 ** 32 - 1)  # chunks of layer 0
    zero_m = _patched(huge, _LAYER_HEADER, layer0, 1, 0)
    zero_n = _patched(huge, _HEADER, 0, 2, 0)
    for data in (zero_m, zero_n):  # out_ch * 2**32 index words, were the indices read
        with pytest.raises(BadArtifact, match="layer 0: .* need n >= 1 and m >= 2"):
            deserialize_model(data)


def test_validate_bounds_int64_headroom():
    model = compile_model(default_float_model(seed=4))
    assert validate(model) is model
    for li, field, value in ((0, "bias_q", 2 ** 40), (3, "bias_q", 2 ** 63 - 1), (0, "shift", 127),
                             (1, "shift", 0), (2, "shift", 63)):
        broken = deserialize_model(serialize_model(model))
        layer = broken.layers[li]
        if field == "shift":
            layer.shift = value
        else:
            getattr(layer, field)[0] = value
        with pytest.raises(BadArtifact):
            validate(broken)
        with pytest.raises(BadArtifact):
            deserialize_model(serialize_model(broken))


def test_compile_refuses_a_checkpoint_that_would_overflow():
    model = default_float_model(seed=0)
    model.layers[0].bias[0] = 1e6  # exact arithmetic needs more than int64
    with pytest.raises(BadArtifact):
        compile_model(model)


def test_a_refused_mode_is_refused_everywhere():
    # decomposed m=2 would split into 1-bit halves
    model = compile_model(default_float_model(seed=4), CompileConfig(conv_m=2, linear_m=2))
    model.layers[0].decomposed = True
    with pytest.raises(ValueError):
        CompileConfig(n=10, conv_m=2, linear_m=2)
    with pytest.raises(BadArtifact):
        validate(model)
    with pytest.raises(BadArtifact):
        deserialize_model(serialize_model(model))
    with pytest.raises(OddSplitUnsupported, match="cannot be decomposed"):
        MpuEngine(model)


def test_a_model_must_end_in_a_linear_layer(tmp_path, capsys):
    # a conv-ended model's logits carry a time axis, not one per class
    checkpoint = FloatModel(layers=[default_float_model(seed=4).layers[0]], input_len=320)
    with pytest.raises(BadArtifact, match="last layer must be linear"):
        compile_model(checkpoint)
    save_float_model(checkpoint, tmp_path / "conv.muxf")
    out = tmp_path / "conv.muxn"
    assert main(["compile", "--model", str(tmp_path / "conv.muxf"), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert "last layer must be linear" in capsys.readouterr().err
    # a conv-only artifact written past the compiler is refused at load,
    # whatever input length its header declares
    model = compile_model(default_float_model(seed=4))
    first = replace(model.layers[0], requant=False, out_scale=None)
    blob = serialize_model(replace(model, layers=[first]))
    for data in (blob, _patched(blob, _HEADER, 0, 5, 2 ** 32 - 1)):
        with pytest.raises(BadArtifact, match="last layer must be linear"):
            deserialize_model(data)


@functools.cache
def _default_artifact() -> tuple[bytes, list[int]]:
    """The default .muxn and the offsets of its header bytes."""
    blob = serialize_model(compile_model(default_float_model(seed=0)))
    headers = [range(_HEADER.size)] + [range(at, at + _LAYER_HEADER.size)
                                       for at in _layer_offsets(blob)]
    return blob, [i for r in headers for i in r]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_mutated_artifact_runs_bit_exact_or_is_refused(data):
    blob, header_bytes = _default_artifact()
    at = st.one_of(st.sampled_from(header_bytes), st.integers(0, len(blob) - 1))
    mutated = bytearray(blob)
    for i, byte in data.draw(st.lists(st.tuples(at, st.integers(0, 255)), min_size=1, max_size=3)):
        mutated[i] = byte
    try:
        model = deserialize_model(bytes(mutated))
    except (BadArtifact, CorruptArtifact):
        return
    rng = np.random.default_rng(0)
    u = rng.integers(0, 1 << model.layers[0].activation_bits,
                     size=(2, model.input_channels * model.input_len))
    assert np.array_equal(MpuEngine(model).forward(u), reference_logits(model, u))


def test_deserialize_rejects_truncation():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    for cut in (3, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CorruptArtifact):
            deserialize_model(blob[:cut])


def test_deserialize_rejects_random_bytes():
    rng = np.random.default_rng(9)
    with pytest.raises((BadArtifact, CorruptArtifact)):
        deserialize_model(rng.bytes(256))


def test_class_count_bound_of_ten():
    with pytest.raises(BadArtifact):
        compile_model(default_float_model(seed=6, class_count=11))
    ok = compile_model(default_float_model(seed=6, class_count=10))
    assert deserialize_model(serialize_model(ok)).class_count == 10
    # an 11-class artifact, written past the compiler, is refused at load
    last = ok.layers[-1]
    last.out_channels = 11
    for name in ("line_indices", "bias_q", "mult", "weight_scales"):
        arr = getattr(last, name)
        setattr(last, name, np.concatenate([arr, arr[-1:]]))
    with pytest.raises(BadArtifact):
        deserialize_model(serialize_model(ok))


def test_model_file_roundtrip(tmp_path):
    compiled = compile_model(default_float_model(seed=7))
    path = tmp_path / "model.muxn"
    save_model(compiled, path)
    back = load_model(path)
    assert serialize_model(back) == serialize_model(compiled)


def test_float_container_roundtrip(tmp_path):
    model = default_float_model(seed=8)
    path = tmp_path / "model.muxf"
    save_float_model(model, path)
    back = load_float_model(path)
    assert len(back.layers) == len(model.layers)
    for a, b in zip(model.layers, back.layers):
        assert np.allclose(a.weight, b.weight, atol=1e-6)
        assert np.allclose(a.bias, b.bias, atol=1e-6)
        assert (a.bn is None) == (b.bn is None)
        if a.bn is not None:
            assert np.allclose(a.bn.gamma, b.bn.gamma, atol=1e-6)
            assert a.bn.eps == b.bn.eps
    # float32 payloads are exact on round-trip of float32-representable data
    assert serialize_float_model(back) == serialize_float_model(model)


def test_float_container_rejects_garbage():
    with pytest.raises(BadArtifact):
        deserialize_float_model(b"NOPE" + b"\x00" * 64)
    good = serialize_float_model(default_float_model(seed=8))
    with pytest.raises(CorruptArtifact):
        deserialize_float_model(good[:-7])


def test_quantize_input_mapping():
    model = compile_model(default_float_model(seed=9))
    x = np.array([0.0, 1.0 / 128.0, -1.0, 5.0, -5.0])
    u = quantize_input(x, model)
    assert u.tolist() == [128, 129, 0, 255, 0]


def test_bias_kept_at_accumulator_precision():
    compiled = compile_model(default_float_model(seed=10))
    for layer in compiled.layers:
        assert layer.bias_q.dtype == np.int64


def test_requant_constants_in_range():
    compiled = compile_model(default_float_model(seed=10))
    for layer in compiled.layers[:-1]:
        assert layer.requant
        assert layer.shift >= 1
        assert np.all(layer.mult >= 0) and np.all(layer.mult < (1 << 32))
        assert np.any(layer.mult >= (1 << 30))  # the max-ratio channel anchors the shift
    assert not compiled.layers[-1].requant
    assert compiled.layers[-1].out_scale is None


def test_first_layer_folds_zero_point():
    compiled = compile_model(default_float_model(seed=11))
    first = compiled.layers[0]
    assert not first.activation_signed  # raw unsigned samples
    codes = decode_line_indices(first.line_indices, compiled.n, first.mode_m)
    # bias absorbs -zp * sum(codes); spot-check one channel
    c = 0
    raw_bias = float(fold_batchnorm(default_float_model(seed=11).layers[0]).bias[c])
    v = raw_bias / (first.in_scale * first.weight_scales[c])
    rounded = math.floor(abs(v) + 0.5) * (1 if v >= 0 else -1)
    assert int(first.bias_q[c]) == rounded - 128 * int(codes[c].sum())
