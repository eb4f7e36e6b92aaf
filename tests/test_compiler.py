"""Compiler: BN folding, quantization plumbing, containers."""

import math

import numpy as np
import pytest

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
)
from muxnet.costmodel import model_cost_report, predict_model_costs
from muxnet.errors import BadArtifact, BadBNParams, CorruptArtifact, ShapeError, UnsupportedLayer
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
    model = default_float_model(seed=6, class_count=11)
    blob = serialize_model(compile_model(model))
    with pytest.raises(BadArtifact):
        deserialize_model(blob)
    ok = default_float_model(seed=6, class_count=10)
    assert deserialize_model(serialize_model(compile_model(ok))).class_count == 10


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
