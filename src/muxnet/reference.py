"""Reference implementations that avoid the table datapath entirely.

Everything here computes with ordinary products: line indices are decoded
back to signed codes and multiplied out, convolutions walk the input
window by window, batch norm is applied by its definition instead of being
folded.  Tests compare these against the MUX route, so nothing in this
module may call into the table machinery or share its gather code.
"""

from __future__ import annotations

import numpy as np

from .compiler import ACT_RELU, KIND_CONV1D, CompiledLayer, CompiledModel, FloatModel


def decode_line_indices(indices: np.ndarray, n: int, m: int) -> np.ndarray:
    """(..., chunks) line indices to (..., chunks*n) signed codes."""
    idx = np.asarray(indices, dtype=np.int64)
    mask = (1 << m) - 1
    half = 1 << (m - 1)
    fields = (idx[..., None] >> (m * np.arange(n, dtype=np.int64))) & mask
    codes = np.where(fields >= half, fields - (1 << m), fields)
    return codes.reshape(*idx.shape[:-1], idx.shape[-1] * n)


def reference_inner_product(codes, activations) -> int:
    """Direct multiply-accumulate in plain Python integers."""
    if len(codes) != len(activations):
        raise ValueError(f"length mismatch: {len(codes)} codes vs {len(activations)} activations")
    return sum(int(c) * int(a) for c, a in zip(codes, activations))


def requant_reference(acc: np.ndarray, mult: np.ndarray, shift: int) -> np.ndarray:
    """Round-half-up fixed-point rescale via floor division (not shifts)."""
    acc = np.asarray(acc, dtype=np.int64)
    half = 1 << (shift - 1)
    return np.floor_divide(acc * np.asarray(mult, dtype=np.int64) + half, 1 << shift)


def _clamp(v: np.ndarray, bits: int, signed: bool) -> np.ndarray:
    if signed:
        return np.clip(v, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return np.clip(v, 0, (1 << bits) - 1)


def reference_layer_forward(layer: CompiledLayer, u: np.ndarray) -> np.ndarray:
    """Integer forward of one compiled layer by direct MAC.

    ``u`` is the flat integer input vector of this layer (already padded
    nowhere: the real fan-in).  Returns the integer output vector, after
    requantization and activation unless this is the raw final layer.
    """
    codes = decode_line_indices(layer.line_indices, layer._n, layer.mode_m)[:, :layer.fan_in]
    if layer.kind == KIND_CONV1D:
        x = np.asarray(u, dtype=np.int64).reshape(layer.in_channels, -1)
        t_out = (x.shape[1] - layer.kernel) // layer.stride + 1
        acc = np.empty((layer.out_channels, t_out), dtype=np.int64)
        for t in range(t_out):
            window = x[:, t * layer.stride: t * layer.stride + layer.kernel].reshape(-1)
            acc[:, t] = codes @ window
        acc += layer.bias_q[:, None]
    else:
        acc = codes @ np.asarray(u, dtype=np.int64) + layer.bias_q
    if not layer.requant:
        return acc
    v = requant_reference(acc, layer.mult[:, None] if acc.ndim == 2 else layer.mult, layer.shift)
    if layer.activation == ACT_RELU:
        v = np.maximum(v, 0)
    return _clamp(v, layer.activation_bits, signed=True)


def reference_logits(model: CompiledModel, u: np.ndarray) -> np.ndarray:
    """Integer logits of one sample by direct MAC through every layer."""
    v = np.asarray(u, dtype=np.int64).reshape(-1)
    for layer in model.layers:
        v = reference_layer_forward(layer, v).reshape(-1)
    return v


def float_forward(model: FloatModel, x: np.ndarray) -> np.ndarray:
    """Float logits of one sample, batch norm applied by definition."""
    v = np.asarray(x, dtype=np.float64).reshape(model.input_channels, model.input_len)
    for layer in model.layers:
        if layer.kind == KIND_CONV1D:
            out_ch, _, k = layer.weight.shape
            t_out = (v.shape[1] - k) // layer.stride + 1
            y = np.empty((out_ch, t_out))
            for t in range(t_out):
                window = v[:, t * layer.stride: t * layer.stride + k]
                y[:, t] = np.tensordot(layer.weight, window, axes=([1, 2], [0, 1]))
        else:
            y = layer.weight @ v.reshape(-1)
        if layer.bias is not None:
            y = y + (layer.bias[:, None] if y.ndim == 2 else layer.bias)
        if layer.bn is not None:
            bn = layer.bn
            ax = (slice(None), None) if y.ndim == 2 else slice(None)
            norm = (y - np.asarray(bn.mean)[ax]) / np.sqrt(np.asarray(bn.var)[ax] + bn.eps)
            y = norm * np.asarray(bn.gamma)[ax] + np.asarray(bn.beta)[ax]
        if layer.activation == ACT_RELU:
            y = np.maximum(y, 0.0)
        v = y if y.ndim == 2 else y.reshape(1, -1)
    return v.reshape(-1)


def cic_reference(x: np.ndarray, stages: int, decimation: int, diff_delay: int) -> np.ndarray:
    """Moving-average equivalent of the cascaded integrator-comb path.

    The impulse response is the ``stages``-fold convolution of a boxcar of
    length decimation*diff_delay, evaluated at input rate and sampled at
    phase decimation-1.  Exact in int64 for the supported widths.
    """
    x = np.asarray(x, dtype=np.int64)
    h = np.ones(decimation * diff_delay, dtype=np.int64)
    kernel = h
    for _ in range(stages - 1):
        kernel = np.convolve(kernel, h)
    full = np.convolve(x, kernel)[:len(x)]
    return full[decimation - 1::decimation]


def cic_dc_gain(stages: int, decimation: int, diff_delay: int) -> int:
    return (decimation * diff_delay) ** stages
