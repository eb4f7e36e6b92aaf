"""Compiler from float checkpoints to table-resident integer models.

A compiled layer stores, per output channel, the static-table line indices
of its weight chunks plus the integer constants the datapath needs: folded
bias, requantization multiplier and shift.  Scale selection is data-free:
the output scale of every hidden layer comes from the worst-case integer
accumulator range, so compilation is deterministic given the checkpoint.

Integer conventions, shared by the engine and the reference path:

* weight codes are signed m-bit, chosen per output channel (conv) or per
  layer (linear) by grid search over pre-scales; each layer's codes are
  quantized once, a block of rows at a time, straight into a zeroed array
  padded to whole chunks and held in the narrowest integer dtype of the
  signed m-bit range, from which the line indices are packed (each held
  in ``static_table.line_index_dtype``, the narrowest of its n*m bits, as
  far as the engine) and the folded bias and accumulator bounds are summed;
* the first layer consumes unsigned 8-bit samples with zero point 128; the
  zero point is folded into the integer bias, so the accumulator works on
  raw samples;
* hidden activations are signed 8-bit with zero point 0;
* requantization is v = (acc * mult + (1 << (shift-1))) >> shift with a
  per-channel 32-bit multiplier and one right shift per layer (round half
  up, arithmetic shift), then the activation, then clamping to 8 bits;
* the final layer skips requantization and reports raw accumulators, all
  of its channels sharing one weight scale so integer argmax is the float
  argmax.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadArtifact,
    BadBNParams,
    CorruptArtifact,
    MuxnetError,
    ShapeError,
    UnsupportedLayer,
)
from .quantizer import (
    SEARCH_BLOCK_ELEMS,
    _round_saturate,
    activation_range,
    choose_prescale,
    default_prescale_grid,
    narrowest,
    round_half_away,
)
from .static_table import check_mode, line_index_dtype, pack_line_index, unpack_line_codes

KIND_CONV1D = "conv1d"
KIND_LINEAR = "linear"
ACT_NONE = "none"
ACT_RELU = "relu"

_KIND_CODES = {KIND_CONV1D: 0, KIND_LINEAR: 1}
_ACT_CODES = {ACT_NONE: 0, ACT_RELU: 1}
_KINDS = {v: k for k, v in _KIND_CODES.items()}
_ACTS = {v: k for k, v in _ACT_CODES.items()}

MAGIC = b"MUXN"
VERSION = 1
FLOAT_MAGIC = b"MUXF"
FLOAT_VERSION = 1
MAX_CLASSES = 10


# ---------------------------------------------------------------------------
# float-side model description


@dataclass(frozen=True)
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def validate(self, channels: int) -> None:
        for name in ("gamma", "beta", "mean", "var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (channels,):
                raise BadBNParams(f"{name} has shape {arr.shape}, expected ({channels},)")
            if not np.all(np.isfinite(arr)):
                raise BadBNParams(f"{name} contains nan/inf")
        if not self.eps > 0:
            raise BadBNParams(f"eps must be positive, got {self.eps}")
        if np.any(np.asarray(self.var, dtype=np.float64) + self.eps <= 0):
            raise BadBNParams("var + eps must be positive")


@dataclass
class FloatLayer:
    """One float layer: conv1d weight (out, in, k) or linear weight (out, in)."""

    kind: str
    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    activation: str = ACT_RELU
    bn: BatchNormParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CODES:
            raise UnsupportedLayer(f"unknown layer kind {self.kind!r}")
        if self.activation not in _ACT_CODES:
            raise UnsupportedLayer(f"unknown activation {self.activation!r}")
        w = np.asarray(self.weight, dtype=np.float64)
        want = 3 if self.kind == KIND_CONV1D else 2
        if w.ndim != want:
            raise ShapeError(f"{self.kind} weight must be {want}-d, got shape {w.shape}")
        if self.kind == KIND_CONV1D and self.stride < 1:
            raise UnsupportedLayer(f"stride must be >= 1, got {self.stride}")
        self.weight = w
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ShapeError(f"bias shape {b.shape} does not match {w.shape[0]} outputs")
            self.bias = b

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]


@dataclass
class FloatModel:
    layers: list[FloatLayer]
    input_len: int
    input_channels: int = 1

    def __post_init__(self) -> None:
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        self.shapes()  # raises on inconsistency

    @property
    def class_count(self) -> int:
        return self.layers[-1].out_channels

    def shapes(self) -> list[tuple[int, int]]:
        """(channels, length) after each layer; valid convolutions only."""
        c, t = self.input_channels, self.input_len
        out = []
        for layer in self.layers:
            if layer.kind == KIND_CONV1D:
                o, i, k = layer.weight.shape
                if i != c:
                    raise ShapeError(f"conv expects {i} input channels, pipeline has {c}")
                if k > t:
                    raise UnsupportedLayer(f"kernel {k} longer than input {t} (no padding support)")
                c, t = o, (t - k) // layer.stride + 1
            else:
                o, fan_in = layer.weight.shape
                if fan_in != c * t:
                    raise ShapeError(f"linear expects fan-in {fan_in}, pipeline has {c}*{t}")
                c, t = o, 1
            out.append((c, t))
        return out


def fold_batchnorm(layer: FloatLayer) -> FloatLayer:
    """Fold y = gamma*(conv(x)+b-mu)/sqrt(var+eps) + beta into weight and bias."""
    if layer.bn is None:
        return layer
    bn = layer.bn
    bn.validate(layer.out_channels)
    g = np.asarray(bn.gamma, dtype=np.float64)
    denom = np.sqrt(np.asarray(bn.var, dtype=np.float64) + bn.eps)
    s = g / denom
    shape = (-1,) + (1,) * (layer.weight.ndim - 1)
    w = layer.weight * s.reshape(shape)
    b0 = layer.bias if layer.bias is not None else np.zeros(layer.out_channels)
    b = (b0 - np.asarray(bn.mean, dtype=np.float64)) * s + np.asarray(bn.beta, dtype=np.float64)
    return replace(layer, weight=w, bias=b, bn=None)


# ---------------------------------------------------------------------------
# compiled-side model


@dataclass(frozen=True)
class CompileConfig:
    n: int = 2
    conv_m: int = 10
    linear_m: int = 5
    activation_bits: int = 8
    input_scale: float = 1.0 / 128.0
    input_zero_point: int = 128
    prescale_points: int = 64
    table_budget_bits: int = 12  # decompose a mode once n*m exceeds this

    def __post_init__(self) -> None:
        """Refuse settings whose artifact could not be compiled or loaded back."""
        for m in (self.conv_m, self.linear_m):
            try:
                check_mode(self.n, m, self.decomposed(m))
            except MuxnetError as exc:  # a setting, not an artifact, so exit 3
                raise ValueError(str(exc)) from exc
        if not 2 <= self.activation_bits <= 16:  # 1 signed bit holds no positive level
            raise ValueError(f"activation_bits must be in 2..16, got {self.activation_bits}")
        if self.prescale_points < 1:
            raise ValueError(f"prescale_points must be at least 1, got {self.prescale_points}")

    def mode_m(self, kind: str) -> int:
        return self.conv_m if kind == KIND_CONV1D else self.linear_m

    def decomposed(self, m: int) -> bool:
        return self.n * m > self.table_budget_bits


@dataclass
class CompiledLayer:
    kind: str
    mode_m: int
    decomposed: bool
    in_channels: int
    out_channels: int
    kernel: int  # 0 for linear
    stride: int
    fan_in: int
    chunks: int
    line_indices: np.ndarray  # (out_channels, chunks) in line_index_dtype(n, mode_m): int16 at n = 2, m = 5
    bias_q: np.ndarray  # (out_channels,) int64
    mult: np.ndarray  # (out_channels,) int64, values < 2**32
    shift: int
    requant: bool
    activation: str
    activation_bits: int
    activation_signed: bool
    weight_scales: np.ndarray  # (out_channels,) float64
    in_scale: float
    out_scale: float | None  # None on the final (raw accumulator) layer


@dataclass
class CompiledModel:
    n: int
    input_len: int
    input_channels: int
    input_zero_point: int
    input_scale: float
    layers: list[CompiledLayer]

    @property
    def class_count(self) -> int:
        return self.layers[-1].out_channels

    def shapes(self) -> list[tuple[int, int]]:
        """(channels, length) after each layer; BadArtifact where the chain breaks."""
        c, t = self.input_channels, self.input_len
        out = []
        for li, layer in enumerate(self.layers):
            conv = layer.kind == KIND_CONV1D
            fits = (layer.stride >= 1 and 1 <= layer.kernel <= t and layer.in_channels == c
                    and layer.fan_in == c * layer.kernel) if conv else layer.fan_in == c * t
            if min(c, t, layer.out_channels) < 1 or not fits:
                raise BadArtifact(f"layer {li}: {layer.kind} over {layer.in_channels} channels, kernel "
                                  f"{layer.kernel}, stride {layer.stride}, fan-in {layer.fan_in} does "
                                  f"not fit its {c} x {t} input")
            c, t = layer.out_channels, ((t - layer.kernel) // layer.stride + 1 if conv else 1)
            out.append((c, t))
        return out


def validate(model: CompiledModel) -> CompiledModel:
    """``model`` if the table datapath runs it bit-exactly, else BadArtifact.

    Checks modes, the layer chain (ending in a linear layer), chunks (codes
    past fan_in are 0: the engine's pad inputs meet them), index range,
    class count, scales, the activation chain (unsigned layer 0, then
    signed and no narrower, 2..16 bits, requantized but for the raw last
    layer) and multipliers in [0, 2**32).  An output channel's accumulator
    is bounded by A = sum|code| * max|u| + |bias_q|; A * mult +
    2**(shift-1), or A on the last layer, must stay below 2**63 so that
    int64 wraps in neither engine nor reference.  Every m-bit code is at
    most 2**(m-1) in magnitude, so the rule is first tried with
    fan_in * 2**(m-1) for sum|code|, and the codes are decoded only when
    that bound fails.
    """
    if not model.layers or not 1 <= model.class_count <= MAX_CLASSES:
        raise BadArtifact(f"need 1 to {MAX_CLASSES} classes from at least one layer")
    if model.layers[-1].kind != KIND_LINEAR:
        raise BadArtifact("the last layer must be linear: one logit per class")
    if not (math.isfinite(model.input_scale) and model.input_scale > 0):
        raise BadArtifact(f"bad input scale {model.input_scale}")
    model.shapes()
    n, prev_bits = model.n, 2
    for li, layer in enumerate(model.layers):
        m, bits, last = layer.mode_m, layer.activation_bits, li == len(model.layers) - 1
        _check_layer_mode(li, n, m, layer.decomposed)
        if layer.chunks != math.ceil(layer.fan_in / n):
            raise BadArtifact(f"layer {li}: chunk count {layer.chunks} does not cover fan-in {layer.fan_in}")
        idx = layer.line_indices
        if idx.min() < 0 or idx.max() >= 1 << (n * m):
            raise BadArtifact(f"layer {li}: line index outside [0, 2**{n * m})")
        if not np.all(np.isfinite(layer.weight_scales)) or np.any(layer.weight_scales <= 0):
            raise BadArtifact(f"layer {li}: weight scales must be positive and finite")
        if not prev_bits <= bits <= 16 or layer.activation_signed != (li > 0):
            raise BadArtifact(f"layer {li}: {bits}-bit inputs, signed {layer.activation_signed}, break "
                              f"the chain: layer 0 unsigned, then signed and no narrower, 2..16 bits")
        if layer.requant == last or (last and layer.out_scale is not None):
            raise BadArtifact(f"layer {li}: every layer but the last requantizes, the last reports "
                              f"raw accumulators")
        # only the last chunk reaches past fan_in; its first `kept` codes are weights
        kept = layer.fan_in - (layer.chunks - 1) * n
        if (idx[:, -1] >> (kept * m)).any():
            raise BadArtifact(f"layer {li}: nonzero weight code past fan-in {layer.fan_in}")
        if layer.requant and not 1 <= layer.shift < 63:
            raise BadArtifact(f"layer {li}: requant shift {layer.shift} outside 1..62")
        if layer.mult.min() < 0 or layer.mult.max() >= 1 << 32:
            raise BadArtifact(f"layer {li}: requant multiplier outside [0, 2**32), the range of its u32 field")
        u_max = max(map(abs, activation_range(bits, layer.activation_signed)))
        if _max_reach(layer, itertools.repeat(layer.fan_in << (m - 1)), u_max) >= 1 << 63:
            a = np.abs(unpack_line_codes(idx, n, m).reshape(len(idx), -1))
            # |code| < 2**40 (check_mode), so each 20-bit part sums exactly in int64
            parts = zip((a >> 20).sum(axis=1).tolist(), (a & 0xFFFFF).sum(axis=1).tolist())
            reach = _max_reach(layer, ((h << 20) + low for h, low in parts), u_max)
            if reach >= 1 << 63:
                raise BadArtifact(f"layer {li}: accumulator may reach {reach}, past int64")
        prev_bits = bits
    return model


def _max_reach(layer: CompiledLayer, code_sums, u_max: int) -> int:
    """Largest A * mult + 2**(shift-1) (A on the last layer) over the channels, in Python ints.

    ``code_sums`` gives each channel's sum|code|; A grows with it, and so
    does the result, since multipliers are non-negative.
    """
    reach = [s * u_max + abs(b) for s, b in zip(code_sums, layer.bias_q.tolist())]
    if layer.requant:
        reach = [r * w + (1 << (layer.shift - 1)) for r, w in zip(reach, layer.mult.tolist())]
    return max(reach)


def _check_layer_mode(li: int, n: int, m: int, decomposed: bool) -> None:
    try:
        check_mode(n, m, decomposed)
    except (ValueError, MuxnetError) as exc:
        raise BadArtifact(f"layer {li}: {exc}") from exc


def _accumulator_bounds(codes: np.ndarray, bias_q: np.ndarray, u_lo: int, u_hi: int) -> np.ndarray:
    """Per-channel accumulator magnitude bound used to pick output scales.

    The hard bound (every input at its worst corner) is safe but so loose
    on wide fan-ins that deeper layers would quantize to all zeros, so it
    is tempered by a root-sum-square estimate around the input range's
    midpoint.  Data-free and deterministic either way; inputs that exceed
    the tempered bound are clamped identically by engine and reference, so
    bit-exactness is never at stake, only fidelity headroom.
    """
    pos = np.clip(codes, 0, None).sum(axis=1)
    neg = codes.sum(axis=1) - pos
    hi = pos * u_hi + neg * u_lo + bias_q
    lo = pos * u_lo + neg * u_hi + bias_q
    hard = np.maximum(np.abs(hi), np.abs(lo))
    mid = (u_lo + u_hi) / 2.0
    amp = (u_hi - u_lo) / 2.0
    mean = np.abs(mid * (pos + neg) + bias_q)
    # no float copy of the codes; every partial sum is an integer under 2**53, so exact
    squares = np.einsum("ij,ij->i", codes, codes, dtype=np.float64)
    spread = amp * np.sqrt(squares)
    rss = np.ceil(mean + spread).astype(np.int64)
    return np.minimum(hard, rss)


def _requant_constants(ratios: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-channel 32-bit multipliers plus the shared right shift.

    The shift is set by the largest ratio r: r * 2**shift is below 2**31
    (below 2**30 where its rounding would reach 2**31), so every multiplier
    rounds to at most 2**31 - 1, inside its u32 field; mult/2**shift
    approximates each ratio to float precision.
    """
    r = np.asarray(ratios, dtype=np.float64)
    if not np.all(np.isfinite(r)) or np.any(r < 0) or not np.any(r > 0):
        raise ValueError(f"requant ratios must be finite, non-negative, not all zero: {r}")
    frac, exp = math.frexp(float(r.max()))
    shift = 31 - exp
    if round(frac * (1 << 31)) == (1 << 31):
        shift -= 1
    if shift < 1:
        raise ValueError(f"requant ratio {r.max()} too large to represent")
    if shift > 62:  # validate's bound; 2.0**shift would overflow a float past 1023
        raise ValueError(f"requant ratio {r.max()} too small to represent: shift {shift} past 62")
    return np.rint(r * float(1 << shift)).astype(np.int64), shift


def compile_model(model: FloatModel, cfg: CompileConfig = CompileConfig()) -> CompiledModel:
    """Quantize, fold, and chunk a float model into its table-resident form."""
    qmin, qmax = activation_range(cfg.activation_bits, signed=True)
    u_lo, u_hi = activation_range(cfg.activation_bits, signed=False)  # first layer raw samples
    in_scale = cfg.input_scale
    zero_point = cfg.input_zero_point
    compiled: list[CompiledLayer] = []
    for li, layer in enumerate(model.layers):
        layer = fold_batchnorm(layer)
        last = li == len(model.layers) - 1
        m = cfg.mode_m(layer.kind)
        w2d = layer.weight.reshape(layer.out_channels, -1)
        fan_in = w2d.shape[1]
        # one pre-scale per output channel (conv) or per layer (linear, and the last layer)
        rows = w2d if layer.kind == KIND_CONV1D and not last else w2d.reshape(1, -1)
        try:
            grids = default_prescale_grid(rows, m, cfg.prescale_points)
        except ValueError as exc:  # max|w| too small for any positive scale
            raise BadArtifact(f"layer {li}: {exc}") from exc
        scales = np.full(layer.out_channels, choose_prescale(rows, m, grids))

        # codes at their width, pads zero, quantized a block of rows at a time
        chunks = math.ceil(fan_in / cfg.n)
        codes = np.zeros((layer.out_channels, chunks * cfg.n), dtype=narrowest(*activation_range(m, True)))
        step = max(1, SEARCH_BLOCK_ELEMS // fan_in)
        for r in range(0, layer.out_channels, step):
            block = w2d[r:r + step]
            codes[r:r + step, :fan_in] = _round_saturate(block, np.abs(block), scales[r:r + step, None], m)
        line_indices = pack_line_index(codes.reshape(layer.out_channels, chunks, cfg.n), m)

        bias = layer.bias if layer.bias is not None else np.zeros(layer.out_channels)
        with np.errstate(all="ignore"):  # a subnormal scale divides by zero
            ratio = bias / (in_scale * scales)
        fits = np.abs(ratio) < 2.0**63  # false for inf and nan too
        if not fits.all():
            c = int(np.flatnonzero(~fits)[0])
            raise BadArtifact(f"layer {li}: channel {c}'s bias is {ratio[c]} accumulator units "
                              f"at weight scale {scales[c]}, past int64")
        bias_q = round_half_away(ratio).astype(np.int64)
        bias_q -= zero_point * codes.sum(axis=1, dtype=np.int64)

        if last:
            mult = np.zeros(layer.out_channels, dtype=np.int64)
            shift = 1
            out_scale = None
            requant = False
        else:
            bounds = _accumulator_bounds(codes, bias_q, u_lo, u_hi)
            real_bounds = bounds * in_scale * scales
            peak = float(real_bounds.max())
            out_scale = peak / qmax if peak > 0 else in_scale
            try:
                mult, shift = _requant_constants(in_scale * scales / out_scale)
            except ValueError as exc:
                raise BadArtifact(f"layer {li}: {exc}") from exc
            requant = True

        compiled.append(CompiledLayer(
            kind=layer.kind,
            mode_m=m,
            decomposed=cfg.decomposed(m),
            in_channels=layer.weight.shape[1] if layer.kind == KIND_CONV1D else fan_in,
            out_channels=layer.out_channels,
            kernel=layer.weight.shape[2] if layer.kind == KIND_CONV1D else 0,
            stride=layer.stride if layer.kind == KIND_CONV1D else 1,
            fan_in=fan_in,
            chunks=chunks,
            line_indices=line_indices,
            bias_q=bias_q,
            mult=mult,
            shift=shift,
            requant=requant,
            activation=layer.activation,
            activation_bits=cfg.activation_bits,
            activation_signed=li > 0,
            weight_scales=scales,
            in_scale=in_scale,
            out_scale=out_scale,
        ))
        if not last:
            in_scale = out_scale
            zero_point = 0
            u_lo, u_hi = (0, qmax) if layer.activation == ACT_RELU else (qmin, qmax)
    return validate(CompiledModel(
        n=cfg.n,
        input_len=model.input_len,
        input_channels=model.input_channels,
        input_zero_point=cfg.input_zero_point,
        input_scale=cfg.input_scale,
        layers=compiled,
    ))


def quantize_input(x: np.ndarray, model: CompiledModel) -> np.ndarray:
    """Real-valued samples to the unsigned 8-bit domain of the first layer."""
    u = round_half_away(np.asarray(x, dtype=np.float64) / model.input_scale) + model.input_zero_point
    bits = model.layers[0].activation_bits
    # u is a fresh array, so clamp it in place (cheaper than np.clip)
    np.maximum(u, 0, out=u)
    np.minimum(u, (1 << bits) - 1, out=u)
    return u.astype(np.int64)


# ---------------------------------------------------------------------------
# compiled-model container (.muxn)

_HEADER = struct.Struct("<4sHBBHIHHd")
_LAYER_HEADER = struct.Struct("<BBBBBBHHHIIBdd")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CorruptArtifact(
                f"artifact truncated: wanted {count} bytes at offset {self.pos}, have {len(self.data)}"
            )
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out

    def done(self) -> None:
        if self.pos != len(self.data):
            raise BadArtifact(f"{len(self.data) - self.pos} trailing bytes after model payload")


def _index_bytes(n: int, m: int) -> int:
    return math.ceil(n * m / 8)


def _pack_index_array(indices: np.ndarray, nbytes: int) -> bytes:
    """The low ``nbytes`` bytes of each index, little-endian, read from the narrowest word that holds them."""
    width = 1 << (nbytes - 1).bit_length()  # 1, 2, 4 or 8 bytes
    words = indices.reshape(-1).astype(f"<u{width}").view(np.uint8).reshape(-1, width)
    return words[:, :nbytes].tobytes()


def _unpack_index_array(data: bytes, count: int, nbytes: int) -> np.ndarray:
    """``count`` little-endian ``nbytes``-byte words, in the narrowest dtype that holds any such
    word, so a corrupt index past 2**(n*m) reaches ``validate`` as it was written."""
    width, dtype = 1 << (nbytes - 1).bit_length(), narrowest(0, (1 << (8 * nbytes)) - 1)
    words = np.zeros((count, width), dtype=np.uint8)
    words[:, :nbytes] = np.frombuffer(data, dtype=np.uint8).reshape(count, nbytes)
    return words.view(f"<u{width}").reshape(count).astype(dtype, copy=False)  # words is ours: no second copy


def serialize_model(model: CompiledModel) -> bytes:
    parts = [_HEADER.pack(
        MAGIC, VERSION, model.n, len(model.layers), model.class_count,
        model.input_len, model.input_channels, model.input_zero_point, model.input_scale,
    )]
    for layer in model.layers:
        flags = (1 if layer.requant else 0) | (2 if layer.activation_signed else 0) | (4 if layer.decomposed else 0)
        parts.append(_LAYER_HEADER.pack(
            _KIND_CODES[layer.kind], layer.mode_m, flags, _ACT_CODES[layer.activation],
            layer.activation_bits, layer.stride, layer.kernel, layer.in_channels,
            layer.out_channels, layer.fan_in, layer.chunks, layer.shift,
            layer.in_scale, math.nan if layer.out_scale is None else layer.out_scale,
        ))
        parts.append(_pack_index_array(layer.line_indices, _index_bytes(model.n, layer.mode_m)))
        parts.append(layer.bias_q.astype("<i8").tobytes())
        parts.append(layer.mult.astype("<u4").tobytes())
        parts.append(layer.weight_scales.astype("<f8").tobytes())
    return b"".join(parts)


def deserialize_model(data: bytes) -> CompiledModel:
    """Parse a .muxn container; ``validate`` then decides whether it can run.

    Each layer's mode is checked as soon as its header is read, because the
    mode sets how many index bytes follow.
    """
    r = _Reader(data)
    magic, version, n, layer_count, class_count, input_len, input_channels, zp, in_scale = \
        _HEADER.unpack(r.take(_HEADER.size))
    if magic != MAGIC:
        raise BadArtifact(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise BadArtifact(f"unsupported container version {version}")
    layers: list[CompiledLayer] = []
    for li in range(layer_count):
        (kind_code, mode_m, flags, act_code, act_bits, stride, kernel, in_ch,
         out_ch, fan_in, chunks, shift, layer_in_scale, out_scale) = \
            _LAYER_HEADER.unpack(r.take(_LAYER_HEADER.size))
        if kind_code not in _KINDS or act_code not in _ACTS:
            raise BadArtifact(f"layer {li}: unknown kind/activation code {kind_code}/{act_code}")
        # an index width of 0 would leave out_ch * chunks unbounded by the file size
        _check_layer_mode(li, n, mode_m, bool(flags & 4))
        nbytes = _index_bytes(n, mode_m)
        idx = _unpack_index_array(r.take(out_ch * chunks * nbytes), out_ch * chunks, nbytes)
        layers.append(CompiledLayer(
            kind=_KINDS[kind_code], mode_m=mode_m, decomposed=bool(flags & 4),
            in_channels=in_ch, out_channels=out_ch,
            kernel=kernel, stride=stride, fan_in=fan_in, chunks=chunks,
            line_indices=idx.reshape(out_ch, chunks),
            bias_q=np.frombuffer(r.take(out_ch * 8), dtype="<i8").astype(np.int64),
            mult=np.frombuffer(r.take(out_ch * 4), dtype="<u4").astype(np.int64),
            shift=shift, requant=bool(flags & 1), activation=_ACTS[act_code],
            activation_bits=act_bits, activation_signed=bool(flags & 2),
            weight_scales=np.frombuffer(r.take(out_ch * 8), dtype="<f8").astype(np.float64),
            in_scale=layer_in_scale, out_scale=None if math.isnan(out_scale) else out_scale,
        ))
    r.done()
    model = validate(CompiledModel(
        n=n, input_len=input_len, input_channels=input_channels,
        input_zero_point=zp, input_scale=in_scale, layers=layers,
    ))
    if class_count != model.class_count:  # the header repeats the final layer's width
        raise BadArtifact(f"header class count {class_count} != final layer width {model.class_count}")
    for layer in model.layers:  # validate holds every index below 2**(n*m), so none wraps
        layer.line_indices = layer.line_indices.astype(line_index_dtype(n, layer.mode_m), copy=False)
    return model


def save_model(model: CompiledModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> CompiledModel:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


# ---------------------------------------------------------------------------
# float-checkpoint container (.muxf)

_FLOAT_HEADER = struct.Struct("<4sHBIH")
_FLOAT_LAYER = struct.Struct("<BBBBBHHH")


def _write_f32(parts: list[bytes], arr: np.ndarray) -> None:
    parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_f32(r: _Reader, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape))
    with np.errstate(invalid="ignore"):  # a signalling nan reads as nan, which compile refuses by name
        arr = np.frombuffer(r.take(4 * count), dtype="<f4").astype(np.float64)
    return arr.reshape(shape)


def serialize_float_model(model: FloatModel) -> bytes:
    parts = [_FLOAT_HEADER.pack(FLOAT_MAGIC, FLOAT_VERSION, len(model.layers),
                                model.input_len, model.input_channels)]
    for layer in model.layers:
        parts.append(_FLOAT_LAYER.pack(
            _KIND_CODES[layer.kind], _ACT_CODES[layer.activation],
            1 if layer.bias is not None else 0, 1 if layer.bn is not None else 0,
            layer.stride, layer.weight.shape[2] if layer.kind == KIND_CONV1D else 0,
            layer.weight.shape[1], layer.weight.shape[0],
        ))
        _write_f32(parts, layer.weight)
        if layer.bias is not None:
            _write_f32(parts, layer.bias)
        if layer.bn is not None:
            parts.append(struct.pack("<d", layer.bn.eps))
            for arr in (layer.bn.gamma, layer.bn.beta, layer.bn.mean, layer.bn.var):
                _write_f32(parts, np.asarray(arr))
    return b"".join(parts)


def deserialize_float_model(data: bytes) -> FloatModel:
    r = _Reader(data)
    magic, version, layer_count, input_len, input_channels = _FLOAT_HEADER.unpack(r.take(_FLOAT_HEADER.size))
    if magic != FLOAT_MAGIC:
        raise BadArtifact(f"bad magic {magic!r}, expected {FLOAT_MAGIC!r}")
    if version != FLOAT_VERSION:
        raise BadArtifact(f"unsupported checkpoint version {version}")
    if layer_count < 1 or input_len < 1 or input_channels < 1:
        raise BadArtifact("non-positive checkpoint geometry")
    layers: list[FloatLayer] = []
    for li in range(layer_count):
        kind_code, act_code, has_bias, has_bn, stride, kernel, in_dim, out_dim = \
            _FLOAT_LAYER.unpack(r.take(_FLOAT_LAYER.size))
        if kind_code not in _KINDS or act_code not in _ACTS:
            raise BadArtifact(f"layer {li}: unknown kind/activation code")
        kind = _KINDS[kind_code]
        shape = (out_dim, in_dim, kernel) if kind == KIND_CONV1D else (out_dim, in_dim)
        if any(d < 1 for d in shape):
            raise BadArtifact(f"layer {li}: non-positive weight shape {shape}")
        weight = _read_f32(r, shape)
        bias = _read_f32(r, (out_dim,)) if has_bias else None
        bn = None
        if has_bn:
            (eps,) = struct.unpack("<d", r.take(8))
            gamma, beta, mean, var = (_read_f32(r, (out_dim,)) for _ in range(4))
            bn = BatchNormParams(gamma=gamma, beta=beta, mean=mean, var=var, eps=eps)
        try:
            layers.append(FloatLayer(kind=kind, weight=weight, bias=bias,
                                     stride=stride, activation=_ACTS[act_code], bn=bn))
        except (UnsupportedLayer, ShapeError) as exc:
            raise BadArtifact(f"layer {li}: {exc}") from exc
    r.done()
    try:
        return FloatModel(layers=layers, input_len=input_len, input_channels=input_channels)
    except (ShapeError, UnsupportedLayer) as exc:
        raise BadArtifact(str(exc)) from exc


def save_float_model(model: FloatModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_float_model(model))


def load_float_model(path) -> FloatModel:
    with open(path, "rb") as fh:
        return deserialize_float_model(fh.read())


# ---------------------------------------------------------------------------
# reference desk-scale checkpoint


def default_float_model(seed: int = 0, input_len: int = 320, class_count: int = 5) -> FloatModel:
    """Small 1-d CNN sized for 5 s segments at 64 Hz: two conv, two linear."""
    rng = np.random.default_rng(seed)

    def conv(out_ch: int, in_ch: int, k: int, stride: int) -> FloatLayer:
        std = math.sqrt(2.0 / (in_ch * k))
        return FloatLayer(
            kind=KIND_CONV1D,
            weight=rng.normal(0.0, std, size=(out_ch, in_ch, k)),
            bias=rng.normal(0.0, 0.05, size=out_ch),
            stride=stride,
            activation=ACT_RELU,
            bn=BatchNormParams(
                gamma=rng.uniform(0.8, 1.2, size=out_ch),
                beta=rng.normal(0.0, 0.1, size=out_ch),
                mean=rng.normal(0.0, 0.1, size=out_ch),
                var=rng.uniform(0.5, 1.5, size=out_ch),
            ),
        )

    def linear(out_dim: int, in_dim: int, activation: str) -> FloatLayer:
        std = math.sqrt(2.0 / in_dim)
        return FloatLayer(
            kind=KIND_LINEAR,
            weight=rng.normal(0.0, std, size=(out_dim, in_dim)),
            bias=rng.normal(0.0, 0.05, size=out_dim),
            activation=activation,
        )

    t1 = (input_len - 7) // 2 + 1
    t2 = (t1 - 5) // 2 + 1
    layers = [
        conv(8, 1, 7, 2),
        conv(16, 8, 5, 2),
        linear(32, 16 * t2, ACT_RELU),
        linear(class_count, 32, ACT_NONE),
    ]
    return FloatModel(layers=layers, input_len=input_len, input_channels=1)
