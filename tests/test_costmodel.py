"""Closed-form cost model vs shape arithmetic, the live engine and the scalar path."""

import io
import math

import numpy as np
import pytest

import muxnet.engine
from muxnet.compiler import compile_model, default_float_model
from muxnet.costmodel import (
    EnergyCoefficients,
    decomposition_cost,
    gating_report,
    memory_cost,
    model_cost_report,
    predict_layer_cost,
    predict_model_costs,
    table_entry_count,
    write_cost_csv,
)
from muxnet.engine import MpuEngine
from muxnet.errors import OddSplitUnsupported
from muxnet.mpu import CycleCount, bitserial_inner_product, pe_forward
from muxnet.quantizer import QParams, QuantizedWeightVector
from muxnet.static_table import unpack_line_codes


def test_memory_cost_examples():
    assert memory_cost(2, 5) == (10, 30)
    assert memory_cost(8, 8) == (64, 8 * 256 + 64)
    assert memory_cost(1, 1) == (1, 3)
    assert memory_cost(2, 5, 160) == (1600, 4800)
    with pytest.raises(ValueError):
        memory_cost(0, 5)


def test_lut_overhead_identity():
    for n in (1, 2, 3, 4):
        for m in (1, 4, 8, 10):
            for chunks in (1, 7):
                mux, lut = memory_cost(n, m, chunks)
                assert lut - mux == chunks * m * (1 << n)


def test_decomposition_entry_counts():
    d = decomposition_cost(2, 10)
    assert d.monolithic_entries == (1 << 20) * 4
    assert d.decomposed_entries == 2 * (1 << 10) * 4
    assert d.ratio == 512.0
    assert decomposition_cost(2, 4).ratio == 8.0
    with pytest.raises(OddSplitUnsupported):
        decomposition_cost(2, 5)
    ratios = [decomposition_cost(2, m).ratio for m in (4, 6, 8, 10)]
    assert all(b == 4 * a for a, b in zip(ratios, ratios[1:]))  # 2**(n*m/2)/2


def test_predict_layer_cost_formulas():
    cost = predict_layer_cost(
        index=0, kind="linear", n=2, mode_m=5, decomposed=False,
        out_channels=3, chunks=5, cases=7, groups=8, group_vector_len=8,
        activation_bits=8,
    )
    cpt = 4
    tiles = math.ceil(5 / cpt)   # 2, second tile carries 3 idle slots
    tasks = 7 * 3 * tiles
    assert cost.cycles == math.ceil(tasks / 8) * 8
    assert cost.mux_selects == tasks * cpt * 4 + tasks * cpt * 8
    assert cost.memory_bits_read == 7 * 3 * 5 * 2 * 5  # real chunks only
    assert cost.adder_ops == tasks * 8 * cpt
    assert (cost.weight_bits, cost.lut_bits) == memory_cost(2, 5, 15)


def test_decomposed_layer_doubles_plane_activity():
    base = dict(index=0, kind="conv1d", n=2, mode_m=10, out_channels=4,
                chunks=6, cases=9, groups=8, group_vector_len=8, activation_bits=8)
    mono = predict_layer_cost(decomposed=False, **base)
    split = predict_layer_cost(decomposed=True, **base)
    assert split.mux_selects == 2 * mono.mux_selects
    assert split.adder_ops == 2 * mono.adder_ops
    assert split.cycles == mono.cycles
    assert split.memory_bits_read == mono.memory_bits_read


def test_prediction_matches_live_engine_counters():
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    batch = 3
    u = np.random.default_rng(1).integers(0, 256, size=(batch, model.input_len))
    engine.forward(u)
    rows = predict_model_costs(model, batch=batch)
    fields = ("cycles", "mux_selects", "memory_bits_read")
    for row, live in zip(rows, engine.layer_profile(), strict=True):
        assert [live[f] for f in fields] == [getattr(row, f) for f in fields]
    for f in fields:
        assert getattr(engine.counters, f) == sum(getattr(r, f) for r in rows)


def test_scalar_path_counts_match_the_formula(monkeypatch):
    # bitserial_inner_product counts select by select as it runs and shares
    # no arithmetic with the formula.  groups=1 gives every task its own
    # cycles; 3-chunk tasks leave idle slots in every layer's last tile; the
    # conv layers run a decomposed mode.
    model = compile_model(default_float_model(input_len=40))
    assert any(layer.decomposed for layer in model.layers)
    engine = MpuEngine(model, groups=1, group_vector_len=6)
    calls = []

    def recorded(line_indices, acts, cfg, tables, counters=None):
        out = pe_forward(line_indices, acts, cfg, tables, counters=counters)
        calls.append((line_indices, acts, cfg, tables, out))
        return out

    monkeypatch.setattr(muxnet.engine, "pe_forward", recorded)
    engine.forward(np.random.default_rng(2).integers(0, 256, size=(1, model.input_len)))
    rows = predict_model_costs(model, groups=1, group_vector_len=6)
    assert len(calls) == len(rows)
    for (idx, acts, cfg, tables, out), row in zip(calls, rows):
        n, cpt = cfg.n, cfg.chunks_per_group
        outputs, chunks = idx.shape
        idle_chunk = QuantizedWeightVector(codes=(0,) * n, qparams=QParams(m=cfg.m, scale=1.0))
        counts = CycleCount()
        idle_slots = 0
        for case in range(acts.shape[0]):
            for o in range(outputs):
                total = 0
                for start in range(0, chunks, cpt):
                    weights, x = [], []
                    for c in range(start, start + cpt):
                        if c < chunks:
                            codes = tuple(unpack_line_codes(int(idx[o, c]), n, cfg.m).tolist())
                            weights.append(QuantizedWeightVector(codes, QParams(m=cfg.m, scale=1.0)))
                            x.extend(acts[case, c * n:(c + 1) * n].tolist())
                        else:
                            idle_slots += 1
                            weights.append(idle_chunk)
                            x.extend([0] * n)
                    total += bitserial_inner_product(weights, x, cfg, tables, counters=counts)
                assert total == out[case, o]
        assert idle_slots > 0
        assert counts.cycles == row.cycles
        assert counts.mux_selects == row.mux_selects
        # the model says an idle slot reads no weight memory; the scalar path reads it
        assert counts.memory_bits_read == row.memory_bits_read + idle_slots * n * cfg.m


def test_gating_single_layer_with_headroom():
    bits = 9856
    report = gating_report([bits], [100], blocks=6, capacity_bits=6 * bits)
    assert report.block_bits == bits
    assert report.active_block_cycles == [100, 0, 0, 0, 0, 0]
    assert report.saved_fraction == pytest.approx(5.0 / 6.0)


def test_gating_full_capacity_has_no_headroom():
    report = gating_report([9000], [50], blocks=6)
    assert report.active_block_cycles == [50] * 6
    assert report.saved_fraction == 0.0


def test_gating_two_layers_split_capacity():
    report = gating_report([30, 30], [10, 20], blocks=6, capacity_bits=60)
    assert report.block_bits == 10
    assert report.active_block_cycles == [10, 10, 10, 20, 20, 20]
    assert report.saved_fraction == pytest.approx(0.5)


def test_gating_skips_idle_layers():
    report = gating_report([30, 30], [10, 0], blocks=6, capacity_bits=60)
    assert report.active_block_cycles == [10, 10, 10, 0, 0, 0]


def test_gating_validation():
    with pytest.raises(ValueError):
        gating_report([1, 2], [1], blocks=6)
    with pytest.raises(ValueError):
        gating_report([100], [1], capacity_bits=50)
    with pytest.raises(ValueError):
        gating_report([1], [1], blocks=0)


def test_table_entry_count_shares_modes():
    model = compile_model(default_float_model(seed=0))
    # conv layers share one decomposed m=10 table pair, linears one m=5 table
    want = 2 * (1 << 10) * 4 + (1 << 10) * 4
    assert table_entry_count(model) == want


def test_model_cost_report_totals_and_energy():
    model = compile_model(default_float_model(seed=0))
    report = model_cost_report(model)
    assert report.mux_count == 32
    assert report.weight_memory_bits == sum(
        layer.out_channels * layer.chunks * model.n * layer.mode_m for layer in model.layers)
    assert report.cycles == sum(r.cycles for r in report.layers)
    assert report.energy(EnergyCoefficients(1.0, 0.0, 0.0)) == report.mux_selects
    assert report.energy(EnergyCoefficients(0.0, 1.0, 0.0)) == report.memory_bits_read
    assert report.energy(EnergyCoefficients(0.0, 0.0, 2.0)) == 2.0 * report.adder_ops


def test_cost_csv_layout():
    model = compile_model(default_float_model(seed=0))
    report = model_cost_report(model)
    buf = io.StringIO()
    write_cost_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 1 + len(model.layers) + 1
    header = lines[0].split(",")
    assert header[0] == "layer" and header[-1] == "adder_ops"
    total = lines[-1].split(",")
    assert total[0] == "total"
    assert int(total[-1]) == report.adder_ops
    assert int(total[7]) == report.weight_memory_bits
