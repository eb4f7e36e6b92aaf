"""Compiled-model execution on the two-stage MUX datapath.

The engine owns the static tables (one per distinct mode), feeds every
layer through ``pe_forward`` with that layer's own cost counter, and
applies the integer constants the compiler produced.  All value-path
arithmetic is table gathers, adds, and shifts; the only products appear in
cost counters, never in data.

Activation layout is channel-major throughout: a conv layer hands
(channels, time) to its successor, flattened in C order when a linear
layer follows.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import reduce

import numpy as np

from .compiler import ACT_RELU, KIND_CONV1D, CompiledLayer, CompiledModel
from .costmodel import predict_model_costs
from .errors import ShapeError
from .mpu import CycleCount, MpuConfig, Tables, pe_forward
from .static_table import build_static_table, decompose_table


class MpuEngine:
    """Bit-exact software model of the table-resident inference engine."""

    def __init__(self, model: CompiledModel, groups: int = 8, group_vector_len: int = 8):
        self.model = model
        self.groups = groups
        self.group_vector_len = group_vector_len
        self.reset_counters()
        self._tables: dict[tuple[int, int, bool], Tables] = {}
        self._configs: list[MpuConfig] = []
        for layer in model.layers:
            key = (model.n, layer.mode_m, layer.decomposed)
            if key not in self._tables:
                self._tables[key] = (
                    decompose_table(model.n, layer.mode_m)
                    if layer.decomposed
                    else build_static_table(model.n, layer.mode_m)
                )
            self._configs.append(MpuConfig(
                n=model.n,
                m=layer.mode_m,
                groups=groups,
                group_vector_len=group_vector_len,
                activation_bits=layer.activation_bits,
                activation_signed=layer.activation_signed,
            ))

    def tables_for(self, layer_index: int) -> Tables:
        layer = self.model.layers[layer_index]
        return self._tables[(self.model.n, layer.mode_m, layer.decomposed)]

    def _layer_inner_products(self, li: int, acts: np.ndarray) -> np.ndarray:
        """pe_forward with padding to whole chunks; acts is (cases, fan_in)."""
        layer = self.model.layers[li]
        width = layer.chunks * self.model.n
        if acts.shape[1] != layer.fan_in:
            raise ShapeError(f"layer {li}: got {acts.shape[1]} inputs, fan-in is {layer.fan_in}")
        if width != layer.fan_in:
            padded = np.zeros((acts.shape[0], width), dtype=np.int64)
            padded[:, :layer.fan_in] = acts
            acts = padded
        return pe_forward(
            layer.line_indices, acts, self._configs[li], self.tables_for(li),
            counters=self._layer_counters[li],
        )

    @staticmethod
    def _finish_layer(layer: CompiledLayer, acc: np.ndarray) -> np.ndarray:
        acc = acc + layer.bias_q
        if not layer.requant:
            return acc
        half = 1 << (layer.shift - 1)
        v = (acc * layer.mult + half) >> layer.shift
        if layer.activation == ACT_RELU:
            v = np.maximum(v, 0)
        lim = 1 << (layer.activation_bits - 1)
        return np.clip(v, -lim, lim - 1)

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Integer logits; u is (V,) or (batch, V) in the first layer's domain."""
        u = np.asarray(u, dtype=np.int64)
        squeeze = u.ndim == 1
        if squeeze:
            u = u[None, :]
        want = self.model.input_channels * self.model.input_len
        if u.ndim != 2 or u.shape[1] != want:
            raise ShapeError(f"input shape {u.shape} does not carry {want} samples")
        batch = u.shape[0]
        v = u.reshape(batch, self.model.input_channels, self.model.input_len)
        for li, layer in enumerate(self.model.layers):
            if layer.kind == KIND_CONV1D:
                windows = np.lib.stride_tricks.sliding_window_view(v, layer.kernel, axis=2)
                windows = windows[:, :, ::layer.stride, :]  # (B, C_in, T_out, k)
                t_out = windows.shape[2]
                patches = windows.transpose(0, 2, 1, 3).reshape(batch * t_out, layer.fan_in)
                acc = self._layer_inner_products(li, patches)  # (B*T_out, out_ch)
                out = self._finish_layer(layer, acc)
                v = out.reshape(batch, t_out, layer.out_channels).transpose(0, 2, 1)
            else:
                acc = self._layer_inner_products(li, v.reshape(batch, -1))
                out = self._finish_layer(layer, acc)
                v = out[:, :, None]  # (B, out, 1) keeps the layout convention
        logits = v.reshape(batch, -1)
        return logits[0] if squeeze else logits

    def logits_float(self, u: np.ndarray) -> np.ndarray:
        """Raw accumulators mapped back to real units."""
        last = self.model.layers[-1]
        return self.forward(u) * (last.in_scale * last.weight_scales)

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
