"""Reference implementations that avoid the table datapath entirely.

Everything here computes with ordinary products: line indices are decoded
back to signed codes and multiplied out, a layer's windows are cut with
``sliding_window_view`` and flattened channel-major (a linear layer is one
window over its whole input), batch norm is applied by its definition
instead of being folded, and the CIC path is its moving-average kernel.
Tests compare these against the MUX route, so nothing in this module may
call into the table machinery or share its gather code.

Working sets stay near the size of the result: codes are decoded at their
narrow width and widened only in the int64 contraction's buffers, and the
CIC kernel is evaluated at the kept phase only.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .compiler import ACT_RELU, KIND_CONV1D, CompiledLayer, CompiledModel, FloatModel


def decode_line_indices(indices: np.ndarray, n: int, m: int) -> np.ndarray:
    """(..., chunks) line indices to (..., chunks*n) signed codes.

    Each m-bit field is shifted and masked out in the indices' own dtype and
    written at the narrowest signed width that holds +-2**(m-1), so that the
    field, read as unsigned, fits there before ``^= half; -= half``
    sign-extends it: int8 up to m = 7, int16 up to m = 15.
    """
    idx = np.asarray(indices)
    codes = np.empty(idx.shape + (n,), dtype=np.min_scalar_type(-(1 << m)))
    for i in range(n):
        np.bitwise_and(idx >> (i * m), (1 << m) - 1, out=codes[..., i], casting="unsafe")
    codes ^= 1 << (m - 1)
    codes -= 1 << (m - 1)
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
    # einsum widens the narrow codes in its buffers: exact int64 products, no int64 weight copy
    acc = np.einsum("of,btf->bot", codes, patches, dtype=np.int64) + layer.bias_q[:, None]
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
    length decimation*diff_delay, evaluated at input rate only at the kept
    phase decimation-1: output j is the sum over taps k of kernel[k] *
    x[j*decimation + decimation-1 - k], one strided int64 product-add per tap
    over the decimated length.  ``x`` is read at its own width, never
    copied.  Exact in int64 for the supported widths.
    """
    x = np.asarray(x)
    h = np.ones(decimation * diff_delay, dtype=np.int64)
    kernel = h
    for _ in range(stages - 1):
        kernel = np.convolve(kernel, h)
    out = np.zeros(len(x) // decimation, dtype=np.int64)
    for k, tap in enumerate(kernel):
        first = k // decimation  # the first output whose window reaches back k samples
        if first >= len(out):
            break
        taken = x[decimation - 1 - k % decimation::decimation][:len(out) - first]
        out[first:] += np.multiply(taken, tap, dtype=np.int64)
    return out


def cic_dc_gain(stages: int, decimation: int, diff_delay: int) -> int:
    return (decimation * diff_delay) ** stages
