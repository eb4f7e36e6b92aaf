"""Reference implementations that avoid the table datapath entirely.

Everything here computes with ordinary products: line indices are decoded
back to signed codes and multiplied out, a layer's windows are cut with
``sliding_window_view`` and flattened channel-major (a linear layer is one
window over its whole input), batch norm is applied by its definition
instead of being folded.  Tests compare these against the MUX route, so
nothing in this module may call into the table machinery or share its
gather code.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _windows(x: np.ndarray, channels: int, kernel: int, stride: int) -> np.ndarray:
    """(batch, t_out, channels*kernel) windows of (batch, ...) channel-major rows, flattened channel-major."""
    x = x.reshape(len(x), channels, np.prod(x.shape[1:], dtype=int) // channels)  # every width: batch may be 0
    windows = sliding_window_view(x, kernel, axis=2)[:, :, ::stride]  # (batch, channels, t_out, kernel)
    return windows.transpose(0, 2, 1, 3).reshape(len(x), windows.shape[2], channels * kernel)


def reference_layer_forward(layer: CompiledLayer, u: np.ndarray, n: int) -> np.ndarray:
    """Integer forward of one compiled layer of chunk width ``n`` by direct MAC.

    ``u`` is (batch, ...) rows of this layer's input, channel-major (the real
    fan-in, padded nowhere).  A layer's inputs are its windows flattened
    channel-major; a linear layer is one window spanning its whole input.
    Returns (batch, out_channels, t_out), after requantization and
    activation unless this is the raw final layer.
    """
    codes = decode_line_indices(layer.line_indices, n, layer.mode_m)[:, :layer.fan_in]
    conv = layer.kind == KIND_CONV1D
    channels, kernel, stride = (layer.in_channels, layer.kernel, layer.stride) if conv else (1, layer.fan_in, 1)
    patches = _windows(np.asarray(u, dtype=np.int64), channels, kernel, stride)
    acc = np.matmul(codes, patches.transpose(0, 2, 1)) + layer.bias_q[:, None]
    if not layer.requant:
        return acc
    v = requant_reference(acc, layer.mult[:, None], layer.shift)
    lim = 1 << (layer.activation_bits - 1)
    return np.clip(v, 0 if layer.activation == ACT_RELU else -lim, lim - 1)


def reference_logits(model: CompiledModel, u: np.ndarray) -> np.ndarray:
    """Integer logits by direct MAC through every layer; u is (V,) or (batch, V)."""
    u = np.asarray(u, dtype=np.int64)
    v = u.reshape(-1, u.shape[-1])
    for layer in model.layers:
        v = reference_layer_forward(layer, v, model.n)
    return v.reshape(u.shape[:-1] + (np.prod(v.shape[1:], dtype=int),))


def float_forward(model: FloatModel, x: np.ndarray) -> np.ndarray:
    """Float logits of one sample over the same windows, batch norm applied by definition."""
    v = np.asarray(x, dtype=np.float64).reshape(1, model.input_channels, model.input_len)
    for layer in model.layers:
        w = layer.weight
        conv = layer.kind == KIND_CONV1D
        channels, kernel, stride = (*w.shape[1:], layer.stride) if conv else (1, w.shape[1], 1)
        # einsum loops where matmul over the windows would call BLAS gemm, with its buffers
        y = np.einsum("of,tf->ot", w.reshape(len(w), -1), _windows(v, channels, kernel, stride)[0])
        if layer.bias is not None:
            y = y + layer.bias[:, None]
        if layer.bn is not None:
            bn = layer.bn
            norm = (y - np.asarray(bn.mean)[:, None]) / np.sqrt(np.asarray(bn.var)[:, None] + bn.eps)
            y = norm * np.asarray(bn.gamma)[:, None] + np.asarray(bn.beta)[:, None]
        if layer.activation == ACT_RELU:
            y = np.maximum(y, 0.0)
        v = y[None]
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
