"""Compiler: BN folding, quantization plumbing, containers, validity rules."""

import copy
import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from muxnet import compiler
from muxnet.cli import EXIT_INPUT, EXIT_OK, main
from muxnet.compiler import (
    _HEADER,
    _LAYER_HEADER,
    ACT_NONE,
    ACT_RELU,
    KIND_CONV1D,
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
    MuxnetError,
    NonFiniteWeight,
    OddSplitUnsupported,
    ShapeError,
    UnsupportedLayer,
)
from muxnet.quantizer import ENUM_BUDGET_BITS, activation_range, narrowest, quantize_codes
from muxnet.reference import decode_line_indices, float_forward, reference_logits
from muxnet.static_table import check_mode, unpack_line_codes
from test_quantizer import scalar_choose_prescale


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


def test_float_forward_matches_an_independent_float_computation():
    # the default model runs every branch of float_forward: conv with batch norm,
    # linear layers, ReLU and the raw last layer.  The oracle cuts windows with
    # sliding_window_view, applies batch norm by its definition and multiplies
    # the linear layers out with @
    model = default_float_model(seed=12, input_len=80)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.normal(size=(1, 80))
        v = x
        for layer in model.layers:
            if layer.kind == KIND_CONV1D:
                windows = sliding_window_view(v, layer.weight.shape[2], axis=1)[:, ::layer.stride]
                y = np.einsum("oik,itk->ot", layer.weight, windows) + layer.bias[:, None]
                bn = {name: np.asarray(getattr(layer.bn, name))[:, None]
                      for name in ("gamma", "beta", "mean", "var")}
                y = bn["gamma"] * (y - bn["mean"]) / np.sqrt(bn["var"] + layer.bn.eps) + bn["beta"]
            else:
                y = layer.weight @ v.reshape(-1) + layer.bias
            v = np.maximum(y, 0.0) if layer.activation == ACT_RELU else y
        assert [layer.activation for layer in model.layers] == [ACT_RELU] * 3 + [ACT_NONE]
        got = float_forward(model, x)
        assert got.shape == (model.class_count,)
        assert np.allclose(got, v, rtol=1e-12, atol=1e-12), np.max(np.abs(got - v))
        assert got.argmax() == v.argmax()


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


@pytest.mark.parametrize("field, value, match", [
    ("gamma", np.array([np.nan]), "gamma contains nan/inf"),
    ("var", np.array([np.inf]), "var contains nan/inf"),
    ("eps", 0.0, "eps must be positive, got 0.0"),
    ("eps", float("nan"), "eps must be positive, got nan"),
])
def test_batch_norm_refuses_nan_and_a_non_positive_eps(field, value, match):
    bn = {"gamma": np.ones(1), "beta": np.zeros(1), "mean": np.zeros(1), "var": np.ones(1), field: value}
    with pytest.raises(BadBNParams, match=match):
        fold_batchnorm(FloatLayer(kind="conv1d", weight=np.ones((1, 1, 1)), bn=BatchNormParams(**bn)))


def test_float_layer_refuses_an_unknown_activation():
    with pytest.raises(UnsupportedLayer, match="unknown activation 'gelu'"):
        FloatLayer(kind="linear", weight=np.ones((2, 3)), activation="gelu")


def test_float_model_refuses_no_layers():
    with pytest.raises(ShapeError, match="model needs at least one layer"):
        FloatModel(layers=[], input_len=4)


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


def scalar_choose_prescale_rows(weights, m, search_grids):
    """The compiler's (rows, len) call, one row and its grid at a time through the scalar search."""
    return np.array([scalar_choose_prescale(w, m, grid) for w, grid in zip(weights, search_grids)])


def _scalar_search_bytes(monkeypatch, model, cfg=CompileConfig()):
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "choose_prescale", scalar_choose_prescale_rows)
        return serialize_model(compile_model(model, cfg))


def test_a_zero_output_channel_compiles_as_the_scalar_search_does(monkeypatch):
    model = default_float_model(0)
    model.layers[0].weight[3] = 0  # an all-zero channel searches the one-point grid [1.0]
    compiled = compile_model(model)
    assert compiled.layers[0].weight_scales[3] == 1.0
    assert serialize_model(compiled) == _scalar_search_bytes(monkeypatch, model)


@pytest.mark.parametrize("input_len, conv_m", [(320, 10), (320, 6), (640, 10), (640, 6), (1280, 10), (1280, 6)])
def test_artifact_bytes_match_the_scalar_prescale_search(monkeypatch, input_len, conv_m):
    model = default_float_model(0, input_len=input_len)
    cfg = CompileConfig(conv_m=conv_m)
    assert serialize_model(compile_model(model, cfg)) == _scalar_search_bytes(monkeypatch, model, cfg)


@pytest.mark.parametrize("input_len, conv_m", [(320, 10), (320, 6), (640, 10), (640, 6), (1280, 10), (1280, 6)])
def test_compiled_codes_are_quantize_codes_at_the_picked_scales(input_len, conv_m):
    # compile quantizes a block of rows at a time straight into its padded code array;
    # decoded independently, every layer's codes are quantize_codes of its folded
    # weights at the scales it stored, and every pad code is 0 (L2 of the 1280-input
    # models spans several row blocks)
    model = default_float_model(0, input_len=input_len)
    compiled = compile_model(model, CompileConfig(conv_m=conv_m))
    for float_layer, layer in zip(model.layers, compiled.layers):
        w2d = fold_batchnorm(float_layer).weight.reshape(layer.out_channels, -1)
        codes = decode_line_indices(layer.line_indices, compiled.n, layer.mode_m)
        want = quantize_codes(w2d, layer.mode_m, layer.weight_scales[:, None])
        assert np.array_equal(codes[:, :layer.fan_in], want)
        assert not codes[:, layer.fan_in:].any()


def test_compile_model_peak_memory_is_bounded():
    # one weight-sized copy at a time: the pre-scale search's sorted copy of L2's
    # 162,304 weights (1.3 MB) is the largest, and the codes are quantized in row
    # blocks straight into int8; 1.54 MB measured, its result included
    model = default_float_model(0, input_len=1280)
    tracemalloc.start()
    try:
        compiled = compile_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compiled.layers[2].fan_in == 162_304 // 32
    assert peak <= 1_600_000


@pytest.mark.parametrize("layer, channel", [(3, None), (0, 5)])
def test_weights_too_small_for_a_prescale_grid_are_refused(layer, channel):
    # at m = 5 or 6, max|w| = 5e-324 puts the grid's lowest point, max|w| / 2**m,
    # under the smallest subnormal: compile refuses the layer by name, not with
    # numpy's "Geometric sequence cannot include zero"
    model = default_float_model(0)
    weight = model.layers[layer].weight
    if channel is None:
        weight[:] = 5e-324
    else:
        model.layers[layer].bn = None  # its tiny channel must reach the search as it is
        weight[channel] = -5e-324
    m = 5 if channel is None else 6
    want = (rf"^layer {layer}: max \|w\| 5e-324 leaves an m={m} pre-scale grid no positive scale: "
            rf"its lowest point, max\|w\| / 2\*\*{m}, underflows to 0$")
    with pytest.raises(BadArtifact, match=want):
        compile_model(model, CompileConfig(conv_m=m))


def accumulator_bounds_oracle(codes, bias_q, u_lo, u_hi):
    """Per channel, corner sums in Python ints: the worse of the two input corners, tempered
    by the root-sum-square estimate around the range's midpoint."""
    mid, amp = (u_lo + u_hi) / 2.0, (u_hi - u_lo) / 2.0
    out = []
    for row, b in zip(codes.tolist(), bias_q.tolist()):
        hi = sum(c * (u_hi if c > 0 else u_lo) for c in row) + b
        lo = sum(c * (u_lo if c > 0 else u_hi) for c in row) + b
        rss = math.ceil(abs(mid * sum(row) + b) + amp * math.sqrt(sum(c * c for c in row)))
        out.append(min(max(abs(hi), abs(lo)), rss))
    return out


@pytest.mark.parametrize("u_lo, u_hi", [(0, 255), (0, 127), (-128, 127)])
def test_accumulator_bounds_match_a_per_channel_oracle(u_lo, u_hi):
    rng = np.random.default_rng([u_lo + 128, u_hi])
    for fan_in, m in ((1, 10), (2, 5), (7, 10), (40, 6), (2464, 5)):
        codes = rng.integers(-(1 << (m - 1)), 1 << (m - 1), size=(9, fan_in))
        codes[0] = 0  # a zero channel
        codes[1] = -(1 << (m - 1))
        codes[2, 1:] = 0  # one live code: the corner bound and the estimate meet
        bias_q = rng.integers(-(1 << 20), 1 << 20, size=9)
        bias_q[3] = 0
        got = compiler._accumulator_bounds(codes, bias_q, u_lo, u_hi)
        assert got.dtype == np.int64
        assert got.tolist() == accumulator_bounds_oracle(codes, bias_q, u_lo, u_hi), (fan_in, m)
    wide = np.full((1, 4), -(1 << 39))  # m = 40 (n = 1, decomposed): each square is 2**78, past int64
    zero = np.zeros(1, dtype=np.int64)
    assert compiler._accumulator_bounds(wide, zero, u_lo, u_hi).tolist() == \
        accumulator_bounds_oracle(wide, zero, u_lo, u_hi)


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


def test_deserialize_refuses_a_header_class_count_off_the_final_layer():
    blob = serialize_model(compile_model(default_float_model(seed=4)))
    with pytest.raises(BadArtifact, match="^header class count 4 != final layer width 5$"):
        deserialize_model(_patched(blob, _HEADER, 0, 4, 4))  # in [1, 10], so only the width check sees it


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


def test_validate_refuses_a_multiplier_outside_its_u32_field():
    # a negative multiplier would make the headroom bound negative, and one of
    # 2**32 or more reloads from its u32 field as another number
    model = compile_model(default_float_model(seed=4))
    for value in (-(2 ** 60), 2 ** 32 + 7, 2 ** 60):
        broken = copy.deepcopy(model)
        broken.layers[1].mult[0] = value
        with pytest.raises(BadArtifact, match=r"layer 1: requant multiplier outside \[0, 2\*\*32\)"):
            validate(broken)
    broken.layers[1].mult[0] = 2 ** 32 + 7
    assert deserialize_model(serialize_model(broken)).layers[1].mult[0] == 7


def test_validate_refuses_a_bad_input_scale(tmp_path, capsys):
    model = compile_model(default_float_model(seed=4))
    for scale in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(BadArtifact, match=f"^bad input scale {scale}$"):
            validate(replace(model, input_scale=scale))
    bad = tmp_path / "bad.muxn"
    bad.write_bytes(serialize_model(replace(model, input_scale=0.0)))
    assert main(["verify", "--model", str(bad), "--cases", "16"]) == EXIT_INPUT
    assert "BadArtifact: bad input scale 0.0" in capsys.readouterr().err


def test_validate_refuses_a_chunk_count_that_misses_the_fan_in():
    model = compile_model(default_float_model(seed=4))
    fan_in = model.layers[2].fan_in
    for chunks in (model.layers[2].chunks - 1, model.layers[2].chunks + 1):
        broken = copy.deepcopy(model)
        broken.layers[2].chunks = chunks
        with pytest.raises(BadArtifact, match=f"^layer 2: chunk count {chunks} does not cover "
                                              f"fan-in {fan_in}$"):
            validate(broken)


def validate_oracle(model) -> str | None:
    """The pad, shift, multiplier and headroom rules of ``validate``, every code decoded
    and summed in Python ints: the first broken rule's message, or None."""
    for li, layer in enumerate(model.layers):
        codes = decode_line_indices(layer.line_indices, model.n, layer.mode_m).tolist()
        if any(any(row[layer.fan_in:]) for row in codes):
            return f"layer {li}: nonzero weight code past fan-in {layer.fan_in}"
        if layer.requant and not 1 <= layer.shift < 63:
            return f"layer {li}: requant shift {layer.shift} outside 1..62"
        if not all(0 <= w < 2 ** 32 for w in layer.mult.tolist()):
            return f"layer {li}: requant multiplier outside [0, 2**32), the range of its u32 field"
        u_max = max(map(abs, activation_range(layer.activation_bits, layer.activation_signed)))
        reach = []
        for row, b, w in zip(codes, layer.bias_q.tolist(), layer.mult.tolist()):
            a = sum(map(abs, row)) * u_max + abs(b)
            reach.append(a * w + 2 ** (layer.shift - 1) if layer.requant else a)
        if max(reach) >= 2 ** 63:
            return f"layer {li}: accumulator may reach {max(reach)}, past int64"
    return None


def loose_reach(layer) -> int:
    """The headroom rule's largest value over the channels with fan_in * 2**(m-1) for sum|code|."""
    u_max = max(map(abs, activation_range(layer.activation_bits, layer.activation_signed)))
    a = [layer.fan_in * 2 ** (layer.mode_m - 1) * u_max + abs(b) for b in layer.bias_q.tolist()]
    if layer.requant:
        return max(r * w + 2 ** (layer.shift - 1) for r, w in zip(a, layer.mult.tolist()))
    return max(a)


def validate_message(model) -> str | None:
    try:
        validate(model)
    except BadArtifact as exc:
        return str(exc)
    return None


@functools.cache
def _wide_model():
    """16-bit activations at 6-bit linear codes: layer 2 fails the loose bound and clears the exact one."""
    model = compile_model(default_float_model(seed=4, input_len=1280),
                          CompileConfig(activation_bits=16, linear_m=6))
    assert loose_reach(model.layers[2]) >= 2 ** 63
    return model


def test_validate_decodes_the_codes_where_the_loose_bound_fails():
    model = copy.deepcopy(_wide_model())
    assert validate_oracle(model) is None
    assert validate(model) is model
    deserialize_model(serialize_model(model))  # the loader's validate accepts it too
    layer = model.layers[2]
    layer.bias_q[0] = abs(int(layer.bias_q[0])) + 2 ** 63 // int(layer.mult[0]) + 1
    want = validate_oracle(model)
    reach = int(want.removeprefix("layer 2: accumulator may reach ").removesuffix(", past int64"))
    assert 2 ** 63 <= reach < loose_reach(layer)  # the exact value, not the bound
    assert validate_message(model) == want
    with pytest.raises(BadArtifact) as refused:
        deserialize_model(serialize_model(model))
    assert str(refused.value) == want


@functools.cache
def _validate_cases():
    return (compile_model(default_float_model(seed=0)),
            compile_model(default_float_model(seed=0), CompileConfig(n=3, conv_m=6, linear_m=4)),
            compile_model(default_float_model(seed=4), CompileConfig(activation_bits=16, linear_m=8)))


def _magnitude(bits: int):
    """Nonzero integers below 2**bits in magnitude, of either sign, every bit length about as likely."""
    magnitudes = st.sampled_from(range(bits)).flatmap(lambda e: st.integers(2 ** e, 2 ** (e + 1) - 1))
    return st.tuples(magnitudes, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_validate_decides_as_the_decoding_oracle(data):
    model = copy.deepcopy(data.draw(st.sampled_from(_validate_cases())))
    for _ in range(data.draw(st.integers(1, 3))):
        layer = data.draw(st.sampled_from(model.layers))
        c = data.draw(st.integers(0, layer.out_channels - 1))
        field = data.draw(st.sampled_from(["pad", "bias_q", "mult", "shift"]))
        kept = layer.fan_in - (layer.chunks - 1) * model.n
        if field == "pad" and kept < model.n:
            at = data.draw(st.integers(kept, model.n - 1)) * layer.mode_m
            code = data.draw(st.integers(0, 2 ** layer.mode_m - 1))
            cleared = int(layer.line_indices[c, -1]) & ~((2 ** layer.mode_m - 1) << at)
            layer.line_indices[c, -1] = cleared | code << at
        elif field == "bias_q":
            layer.bias_q[c] = data.draw(st.one_of(_magnitude(63), st.sampled_from([0, -(2 ** 63)])))
        elif field == "mult":
            layer.mult[c] = data.draw(st.one_of(_magnitude(63), st.sampled_from([0, 2 ** 32 - 1, 2 ** 32])))
        elif field == "shift":
            layer.shift = data.draw(st.sampled_from([-1, 0, 1, 2, 40, 62, 63, 64, 255]))
    assert validate_message(model) == validate_oracle(model)


def test_a_nonzero_pad_code_is_refused():
    # layer 0's fan-in 7 fills 4 chunks of n = 2, so its last chunk's second
    # code is padding; the engine pairs a pad code with whatever input its
    # patch index reads there, which adds nothing only when the code is 0
    model = compile_model(default_float_model(seed=0))
    layer = model.layers[0]
    assert (layer.fan_in, layer.chunks * model.n) == (7, 8)
    assert validate(model) is model
    layer.line_indices[:, -1] |= 5 << layer.mode_m
    with pytest.raises(BadArtifact, match="layer 0: nonzero weight code past fan-in 7"):
        validate(model)
    with pytest.raises(BadArtifact, match="layer 0: nonzero weight code past fan-in 7"):
        deserialize_model(serialize_model(model))


def test_compile_refuses_a_checkpoint_that_would_overflow():
    model = default_float_model(seed=0)
    model.layers[0].bias[0] = 1e6  # exact arithmetic needs more than int64
    with pytest.raises(BadArtifact):
        compile_model(model)


def test_compile_refuses_a_channel_whose_bias_or_requant_ratio_does_not_fit():
    # subnormal weights take a scale whose product with the input scale is 0,
    # so the channel's bias in accumulator units divides by zero
    model = default_float_model(seed=0)
    model.layers[0].weight[3] = 1e-320
    with pytest.raises(BadArtifact, match="layer 0: channel 3's bias is -inf"):
        compile_model(model)
    # a zero channel keeps scale 1 beside channels at 1e-30, so its requant
    # ratio is too large for a 32-bit multiplier
    model = default_float_model(seed=0)
    layer = model.layers[1]
    layer.bn, layer.bias = None, np.zeros(layer.out_channels)
    layer.weight[:] = 1e-30
    layer.weight[0] = 0.0
    with pytest.raises(BadArtifact, match="layer 1: requant ratio .* too large"):
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


def test_a_signalling_nan_weight_is_refused_without_a_warning():
    blob = bytearray(serialize_float_model(default_float_model(seed=0, input_len=80)))
    first = compiler._FLOAT_HEADER.size + compiler._FLOAT_LAYER.size
    blob[first:first + 4] = (0x7FA00000).to_bytes(4, "little")  # a float32 signalling nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = deserialize_float_model(bytes(blob))
        assert np.isnan(model.layers[0].weight.flat[0])
        with pytest.raises(NonFiniteWeight):
            compile_model(model)


@functools.cache
def _default_checkpoint() -> tuple[bytes, list[int]]:
    """A small default .muxf and the offsets of its header bytes and batch-norm eps."""
    model = default_float_model(seed=0, input_len=80)
    blob = serialize_float_model(model)
    heads, at = [range(compiler._FLOAT_HEADER.size)], compiler._FLOAT_HEADER.size
    for layer in model.layers:
        heads.append(range(at, at + compiler._FLOAT_LAYER.size))
        at += compiler._FLOAT_LAYER.size + 4 * (layer.weight.size + layer.out_channels)  # weight, bias
        if layer.bn is not None:
            heads.append(range(at, at + 8))
            at += 8 + 4 * 4 * layer.out_channels
    assert at == len(blob)
    return blob, [i for r in heads for i in r]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_mutated_checkpoint_compiles_or_is_refused(tmp_path_factory, data):
    blob, header_bytes = _default_checkpoint()
    at = st.one_of(st.sampled_from(header_bytes), st.integers(0, len(blob) - 1))
    mutated = bytearray(blob)
    for i, byte in data.draw(st.lists(st.tuples(at, st.integers(0, 255)), min_size=1, max_size=3)):
        mutated[i] = byte
    want = EXIT_OK
    try:
        compile_model(deserialize_float_model(bytes(mutated)))
    except MuxnetError:  # BadArtifact or CorruptArtifact at load, any refusal at compile
        want = EXIT_INPUT
    if data.draw(st.integers(0, 9)) == 0:  # a few through the command line
        root = tmp_path_factory.mktemp("muxf")
        (root / "m.muxf").write_bytes(mutated)
        assert main(["compile", "--model", str(root / "m.muxf"), "--out", str(root / "m.muxn")]) == want


def eight_byte_words(indices, nbytes):
    """The index codec as an 8-byte word per index, cut to its low ``nbytes`` bytes."""
    return indices.astype("<u8").reshape(-1).view(np.uint8).reshape(-1, 8)[:, :nbytes].tobytes()


@pytest.mark.parametrize("bits", range(2, 41))
def test_the_index_codec_writes_the_low_bytes_of_an_eight_byte_word(bits):
    nbytes = compiler._index_bytes(1, bits)
    rng = np.random.default_rng(bits)
    in_range = np.concatenate([[0, 1, 2 ** bits - 1], rng.integers(0, 2 ** bits, size=61)]).reshape(8, 8)
    wild = np.array([-1, -(2 ** bits), -(2 ** 63), 2 ** bits, 2 ** 40 + 5, 2 ** 63 - 1])
    wild = np.concatenate([wild, rng.integers(-(2 ** 63), 2 ** 63 - 1, size=10, endpoint=True)])
    for indices in (in_range, wild, in_range[:0]):
        assert compiler._pack_index_array(indices, nbytes) == eight_byte_words(indices, nbytes)
    # words are read in the narrowest dtype that holds any nbytes-byte word, so one
    # past 2**bits stays as it was written: never uint64, which meets no int64 shift
    word_dtype = {1: np.uint8, 2: np.uint16, 3: np.int32, 4: np.uint32, 5: np.int64}[nbytes]
    blob = compiler._pack_index_array(in_range, nbytes)
    back = compiler._unpack_index_array(blob, in_range.size, nbytes)
    assert back.dtype == word_dtype and np.array_equal(back, in_range.reshape(-1))
    raw = rng.bytes(16 * nbytes)  # any bytes, past 2**bits too
    words = np.zeros((16, 8), dtype=np.uint8)
    words[:, :nbytes] = np.frombuffer(raw, dtype=np.uint8).reshape(16, nbytes)
    got = compiler._unpack_index_array(raw, 16, nbytes)
    assert got.dtype == word_dtype and np.array_equal(got, words.view("<u8").reshape(16))
    assert compiler._unpack_index_array(b"", 0, nbytes).shape == (0,)


def _accepted_modes():
    """(n, m, decomposed) for n in {1, 2} and every m that check_mode accepts either way."""
    for n in (1, 2):
        for m in range(2, 2 * ENUM_BUDGET_BITS // n + 1):
            for decomposed in (False, True):
                try:
                    check_mode(n, m, decomposed)
                except (ValueError, MuxnetError):
                    continue
                yield n, m, decomposed


@pytest.mark.parametrize("n, m, decomposed", list(_accepted_modes()))
def test_line_indices_keep_their_narrow_width_through_compile_and_load(n, m, decomposed):
    # compile packs every line index at the narrowest dtype of n*m bits and load
    # hands it on at that dtype, equal to an int64 oracle pack of the codes; a
    # written word past 2**(n*m) (2**(n*m) itself, or all ones) is still refused
    # by name, never wrapped into range
    weight = np.random.default_rng(n * 100 + m).normal(size=(2, 5))
    cfg = CompileConfig(n=n, conv_m=m, linear_m=m, table_budget_bits=n * m - 1 if decomposed else n * m)
    model = compile_model(FloatModel(layers=[FloatLayer(kind=compiler.KIND_LINEAR, weight=weight)], input_len=5), cfg)
    layer = model.layers[0]
    assert layer.decomposed == decomposed
    codes = np.zeros((2, layer.chunks * n), dtype=np.int64)
    codes[:, :5] = quantize_codes(weight, m, layer.weight_scales[:, None])
    fields = (codes & ((1 << m) - 1)).reshape(2, layer.chunks, n)
    oracle = (fields << (m * np.arange(n, dtype=np.int64))).sum(axis=-1)
    want = narrowest(0, 2 ** (n * m) - 1)
    blob = serialize_model(model)
    back = deserialize_model(blob).layers[0].line_indices
    for got in (layer.line_indices, back):
        assert got.dtype == want and np.array_equal(got, oracle)
    nbytes = math.ceil(n * m / 8)
    at = _HEADER.size + _LAYER_HEADER.size  # layer 0's first index word
    for word in (2 ** (n * m), 2 ** (8 * nbytes) - 1):
        if word < 2 ** (8 * nbytes) and word >= 2 ** (n * m):  # at n*m = 8, 16, 32 no word is past
            bad = blob[:at] + word.to_bytes(nbytes, "little") + blob[at + nbytes:]
            with pytest.raises(BadArtifact, match=f"^layer 0: line index outside \\[0, 2\\*\\*{n * m}\\)$"):
                deserialize_model(bad)


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


@pytest.mark.parametrize("where, field, value, match, cause", [
    # the .muxf header: (magic, version, layer_count, input_len, input_channels)
    ("header", 1, 2, "unsupported checkpoint version 2", None),
    ("header", 2, 0, "non-positive checkpoint geometry", None),
    ("header", 3, 0, "non-positive checkpoint geometry", None),
    ("header", 4, 0, "non-positive checkpoint geometry", None),
    # layer 0: (kind, activation, has_bias, has_bn, stride, kernel, in_dim, out_dim)
    ("layer", 0, 9, "layer 0: unknown kind/activation code", None),
    ("layer", 1, 9, "layer 0: unknown kind/activation code", None),
    ("layer", 7, 0, r"layer 0: non-positive weight shape \(0, 1, 7\)", None),
    ("layer", 5, 0, r"layer 0: non-positive weight shape \(8, 1, 0\)", None),
    # FloatLayer's and FloatModel's own refusals, re-raised as the reader's
    ("layer", 4, 0, "layer 0: stride must be >= 1, got 0", UnsupportedLayer),
    ("header", 4, 2, "conv expects 1 input channels, pipeline has 2", ShapeError),
])
def test_float_container_refusals_name_the_field(tmp_path, capsys, where, field, value, match, cause):
    # every refusal of a damaged checkpoint is a BadArtifact that names what is wrong,
    # and `muxnet compile` exits 2 on it without writing an artifact
    good = serialize_float_model(default_float_model(seed=8))
    fmt, at = ((compiler._FLOAT_HEADER, 0) if where == "header"
               else (compiler._FLOAT_LAYER, compiler._FLOAT_HEADER.size))
    bad = _patched(good, fmt, at, field, value)
    with pytest.raises(BadArtifact, match=match) as refused:
        deserialize_float_model(bad)
    assert (refused.value.__cause__ is None) if cause is None else isinstance(refused.value.__cause__, cause)
    ckpt, out = tmp_path / "bad.muxf", tmp_path / "bad.muxn"
    ckpt.write_bytes(bad)
    assert main(["compile", "--model", str(ckpt), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert "BadArtifact" in capsys.readouterr().err


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


def test_requant_shift_drops_one_where_the_largest_mantissa_rounds_up():
    # 1 - 2**-33 has a 31-bit mantissa that rounds to 2**31: the shift drops by one,
    # so the multiplier is 2**30, not 2**31, and still approximates the ratio to half a unit
    for ratios in ([1 - 2**-33], [1 - 2**-33, 0.5, 0.0, 1e-9]):
        mult, shift = compiler._requant_constants(np.array(ratios))
        assert shift == 30 and mult[0] == 1 << 30 and mult.max() <= 1 << 31
        assert np.all(np.abs(mult / 2.0**shift - ratios) <= 2.0 ** -(shift + 1))
    # one ulp less rounds down: the shift stays at 31 - exp, the multiplier below 2**31
    mult, shift = compiler._requant_constants(np.array([1 - 2**-31]))
    assert shift == 31 and mult[0] == (1 << 31) - 1


def test_requant_constants_refuse_a_ratio_they_cannot_represent():
    # 2**-32 still takes shift 62, validate's largest; anything smaller is refused by
    # name before 2.0**shift is formed (1e-300 would take 1027, past a float's range)
    mult, shift = compiler._requant_constants(np.array([2.0**-32, 0.0]))
    assert shift == 62 and mult.tolist() == [1 << 30, 0]
    for ratio, shift in ((2.0**-33, 63), (1e-300, 1027)):
        with pytest.raises(ValueError, match=f"^requant ratio {ratio} too small to represent: shift {shift} past 62$"):
            compiler._requant_constants(np.array([ratio, 0.0]))
    for bad in ([np.nan, 1.0], [np.inf], [-1.0, 1.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="^requant ratios must be finite, non-negative, not all zero"):
            compiler._requant_constants(np.array(bad))
    # through compile: one channel's bias of 1e8 widens layer 1's output scale until
    # its largest ratio takes shift 65, a BadArtifact that names the layer
    model = default_float_model(seed=0)
    model.layers[1].bias[0] = 1e8
    with pytest.raises(BadArtifact, match="^layer 1: requant ratio .* too small to represent: shift 65 past 62$"):
        compile_model(model)


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
