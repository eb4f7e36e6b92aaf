"""Compiled-model execution on the two-stage MUX datapath.

The engine builds each layer's resident stage-1 rows once at init from
that layer's line indices, read at their narrow ``line_index_dtype``
(``mpu.stage_rows``, fused over as many activation bit-planes as fit the
1 MiB row budget); the rows hold the layer's config
and its static tables, one per distinct mode, shared by its layers.  It
feeds every layer through ``pe_forward`` with those rows and the layer's
own cost counter, and applies the integer constants the compiler
produced.  All value-path arithmetic is table gathers, adds, and shifts;
the only products appear in cost counters, never in data.

Each layer also gets a flat patch index at init (``_patch_index``): the
positions of every window ``x[:, t*stride : t*stride + kernel]``,
channel-major, in one sample's input row, padded to whole chunks, so
``forward`` cuts all of a layer's inputs with one ``np.take``.  A pad
column reads position 0, which meets a zero code (``compiler.validate``
refuses any other), so it adds nothing.  A linear layer is one window that
spans its whole input, as in the reference.  Layer 0 reads the model input
as (channels, time); every layer hands its output on as (time, channels),
which the next layer's index reads as it lies.

Activations travel at their width, never widened to int64 between layers:
the input after its range check in the narrowest dtype that holds layer
0's range (uint8 for 8-bit codes), and each hidden layer's codes in the
one that holds its clamp (int8 up to 8 bits, else int16), which the clamp
writes directly.  ``pe_forward`` reads any integer dtype as it is, and
returns each layer's result in the int32 its rows prove (int64 where they
do not); the finish widens it to int64 in its first step, ``acc * mult``
(``acc + bias_q`` on the raw last layer), whose reach ``compiler.validate``
bounds below 2**63, so logits are int64.  A
requantizing layer folds its bias into the rounding constant at init,
``bias_q * mult + 2**(shift-1)``, so a finish is one product, an add, a
shift and the clamp.  Batch size is not tiled here: the kernel tiles its
cases, and each layer's counters take one ``pe_forward`` call per forward.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import reduce

import numpy as np

from .compiler import ACT_RELU, KIND_CONV1D, CompiledLayer, CompiledModel
from .costmodel import predict_model_costs
from .errors import ShapeError
from .mpu import CycleCount, MpuConfig, StageRows, Tables, _integers, pe_forward, stage_rows
from .quantizer import activation_range, narrowest
from .static_table import build_static_table, decompose_table


def _patch_index(channels: int, length: int, kernel: int, stride: int, time_major: bool,
                 width: int) -> np.ndarray:
    """(t_out, width) positions of each window in one sample's flat input.

    Window t is ``x[:, t*stride : t*stride + kernel]`` flattened channel-major,
    then position 0 up to ``width`` columns; the input is stored
    (length, channels) if ``time_major``, else (channels, length).
    """
    t_out = (length - kernel) // stride + 1
    time = np.arange(t_out)[:, None, None] * stride + np.arange(kernel)  # (t_out, 1, kernel)
    chan = np.arange(channels)[:, None]
    flat = time * channels + chan if time_major else chan * length + time
    index = np.zeros((t_out, width), dtype=np.int64)
    index[:, :channels * kernel] = flat.reshape(t_out, channels * kernel)
    return index


def _requant_step(layer: CompiledLayer) -> tuple[np.ndarray, int, int, np.dtype]:
    """A requantizing layer's constants: the offset ``bias_q * mult + 2**(shift-1)``, so that
    ``(acc * mult + offset) >> shift`` is ``(acc + bias_q) * mult`` rounded half up in one
    pass fewer (``acc * mult``, the offset and their sum each stay within the reach that
    ``compiler.validate`` bounds below 2**63); the clamp; and the dtype that holds it, in
    which the codes are handed on."""
    lo, hi = activation_range(layer.activation_bits, True)
    lo = 0 if layer.activation == ACT_RELU else lo
    return layer.bias_q * layer.mult + (1 << (layer.shift - 1)), lo, hi, narrowest(lo, hi)


class MpuEngine:
    """Bit-exact software model of the table-resident inference engine."""

    def __init__(self, model: CompiledModel, groups: int = 8, group_vector_len: int = 8):
        self.model = model
        self.groups = groups
        self.group_vector_len = group_vector_len
        self.reset_counters()
        tables: dict[tuple[int, bool], Tables] = {}  # one per distinct mode, shared by its layers' rows
        self.rows: list[StageRows] = []  # each layer's resident stage-1 rows, with its cfg and tables
        for layer in model.layers:
            key = (layer.mode_m, layer.decomposed)
            if key not in tables:
                tables[key] = (
                    decompose_table(model.n, layer.mode_m)
                    if layer.decomposed
                    else build_static_table(model.n, layer.mode_m)
                )
            cfg = MpuConfig(
                n=model.n,
                m=layer.mode_m,
                groups=groups,
                group_vector_len=group_vector_len,
                activation_bits=layer.activation_bits,
                activation_signed=layer.activation_signed,
            )
            self.rows.append(stage_rows(layer.line_indices, cfg, tables[key]))
        shapes = [(model.input_channels, model.input_len), *model.shapes()]
        self._patches = [  # each layer's windows in its input row; a linear layer has one
            _patch_index(c, t, *((layer.kernel, layer.stride) if layer.kind == KIND_CONV1D else (t, 1)),
                         time_major=li > 0, width=layer.chunks * model.n)
            for li, ((c, t), layer) in enumerate(zip(shapes, model.layers))
        ]
        self._row_widths = [c * t for c, t in shapes[1:]]  # each layer's output row
        first = self.rows[0].cfg
        self._input_range = activation_range(first.activation_bits, first.activation_signed)
        self._input_width = narrowest(*self._input_range)
        self._requant = [_requant_step(layer) if layer.requant else None for layer in model.layers]

    def _finish_layer(self, li: int, acc: np.ndarray) -> np.ndarray:
        layer, step = self.model.layers[li], self._requant[li]
        if step is None:
            return acc + layer.bias_q  # a new int64 array: the caller's accumulator stays as it was
        offset, lo, hi, width = step
        acc = acc * layer.mult  # a new int64 array too
        acc += offset
        acc >>= layer.shift
        np.maximum(acc, lo, out=acc)
        return np.minimum(acc, hi, out=np.empty(acc.shape, width), casting="unsafe")

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Integer logits; u is (V,) or (batch, V) in the first layer's domain.

        ValueError if a value is not a whole number, or lies outside layer 0's
        activation range, which the datapath would otherwise mask to its low bits.
        """
        u = _integers(u)
        squeeze = u.ndim == 1
        if squeeze:
            u = u[None, :]
        want = self.model.input_channels * self.model.input_len
        if u.ndim != 2 or u.shape[1] != want:
            raise ShapeError(f"input shape {u.shape} does not carry {want} samples")
        lo, hi = self._input_range
        if u.size and (u.min() < lo or u.max() > hi):
            raise ValueError(f"input outside layer 0's range [{lo}, {hi}]")
        batch = u.shape[0]
        # one row per sample at its activation width: (channels, time) into layer 0, (time, channels) after
        v = u.astype(self._input_width, copy=False)
        for li, layer in enumerate(self.model.layers):
            acts = v.take(self._patches[li], axis=1).reshape(-1, layer.chunks * self.model.n)
            acc = pe_forward(self.rows[li], acts, counters=self._layer_counters[li])
            # from (batch * time, out_channels); the width is explicit, as batch may be 0
            v = self._finish_layer(li, acc).reshape(batch, self._row_widths[li])
            del acc  # not alive through the next layer's kernel
        return v[0] if squeeze else v

    def classify(self, u: np.ndarray) -> np.ndarray | int:
        """Argmax class; ties resolve to the lowest class id."""
        logits = self.forward(u)
        return int(np.argmax(logits)) if logits.ndim == 1 else np.argmax(logits, axis=1)

    @property
    def counters(self) -> CycleCount:
        """Totals of every layer's counter since the last reset."""
        return reduce(CycleCount.merge, self._layer_counters, CycleCount())

    def layer_profile(self) -> list[dict]:
        """Per-layer live counts accumulated since the last reset, and weight storage."""
        rows = predict_model_costs(self.model, self.groups, self.group_vector_len)
        return [
            {"kind": layer.kind, "mode_m": layer.mode_m, **asdict(counts),
             "storage_bits": row.weight_bits}
            for layer, counts, row in zip(self.model.layers, self._layer_counters, rows)
        ]

    def reset_counters(self) -> None:
        self._layer_counters = [CycleCount() for _ in self.model.layers]
