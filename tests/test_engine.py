"""Engine vs direct-MAC reference, counters, batching."""

import math

import numpy as np
import pytest

import muxnet.engine
from muxnet.compiler import CompiledModel, CompileConfig, compile_model, default_float_model
from muxnet.costmodel import predict_model_costs
from muxnet.engine import MpuEngine
from muxnet.errors import ShapeError
from muxnet.mpu import pe_forward
from muxnet.reference import reference_logits


def _random_inputs(rng, model, count):
    return rng.integers(0, 256, size=(count, model.input_len), dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_matches_reference(seed):
    # the two routes share nothing past the compiled artifact: the engine
    # gathers table entries bit-plane by bit-plane, the reference multiplies
    model = compile_model(default_float_model(seed=seed))
    engine = MpuEngine(model)
    rng = np.random.default_rng(seed + 100)
    u = _random_inputs(rng, model, 6)
    got = engine.forward(u)
    for i in range(u.shape[0]):
        assert np.array_equal(got[i], reference_logits(model, u[i]))


def test_batch_equals_single():
    model = compile_model(default_float_model(seed=3))
    engine = MpuEngine(model)
    rng = np.random.default_rng(33)
    u = _random_inputs(rng, model, 4)
    batch = engine.forward(u)
    for i in range(4):
        assert np.array_equal(batch[i], engine.forward(u[i]))


def test_classify_and_float_logits_agree():
    model = compile_model(default_float_model(seed=4))
    engine = MpuEngine(model)
    rng = np.random.default_rng(44)
    u = _random_inputs(rng, model, 8)
    logits = engine.forward(u)
    floats = engine.logits_float(u)
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(floats, axis=1))
    assert np.array_equal(engine.classify(u), np.argmax(logits, axis=1))
    one = engine.classify(u[0])
    assert isinstance(one, int) and one == int(np.argmax(logits[0]))


def test_cycle_counters_match_shape_arithmetic():
    model = compile_model(default_float_model(seed=5))
    engine = MpuEngine(model)
    u = _random_inputs(np.random.default_rng(0), model, 1)
    engine.forward(u)
    prof = engine.layer_profile()
    cpt = engine.group_vector_len // model.n
    t = model.input_len
    for li, layer in enumerate(model.layers):
        cases = 1
        if layer.kind == "conv1d":
            t = (t - layer.kernel) // layer.stride + 1
            cases = t
        tiles = math.ceil(layer.chunks / cpt)
        tasks = cases * layer.out_channels * tiles
        want = math.ceil(tasks / engine.groups) * layer.activation_bits
        assert prof[li]["cycles"] == want
    assert engine.counters.cycles == sum(p["cycles"] for p in prof)


def test_memory_bits_exclude_padding_lanes():
    model = compile_model(default_float_model(seed=5))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(1), model, 1))
    t = model.input_len
    want = 0
    for layer in model.layers:
        cases = 1
        if layer.kind == "conv1d":
            t = (t - layer.kernel) // layer.stride + 1
            cases = t
        want += cases * layer.out_channels * layer.chunks * model.n * layer.mode_m
    assert engine.counters.memory_bits_read == want


def test_reset_counters():
    model = compile_model(default_float_model(seed=6))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(2), model, 1))
    assert engine.counters.cycles > 0
    engine.reset_counters()
    assert engine.counters.as_tuple() == (0, 0, 0)
    for p in engine.layer_profile():
        assert (p["cycles"], p["mux_selects"], p["memory_bits_read"]) == (0, 0, 0)


def test_tables_shared_across_same_mode_layers():
    model = compile_model(default_float_model(seed=7))
    engine = MpuEngine(model)
    assert engine.tables_for(0) is engine.tables_for(1)   # both conv, m=10
    assert engine.tables_for(2) is engine.tables_for(3)   # both linear, m=5
    assert engine.tables_for(0) is not engine.tables_for(2)


def test_hidden_activations_stay_in_declared_range():
    model = compile_model(default_float_model(seed=8))
    rng = np.random.default_rng(88)
    u = _random_inputs(rng, model, 3)
    for k in (1, 2, 3):
        prefix = CompiledModel(
            n=model.n, input_len=model.input_len, input_channels=model.input_channels,
            input_zero_point=model.input_zero_point, input_scale=model.input_scale,
            layers=model.layers[:k],
        )
        out = MpuEngine(prefix).forward(u)
        assert np.all(out >= 0)            # relu layers throughout the prefix
        assert np.all(out <= 127)
        assert np.any(out > 0)             # bounds are not so loose everything dies


def test_input_shape_rejected():
    model = compile_model(default_float_model(seed=9))
    engine = MpuEngine(model)
    with pytest.raises(ShapeError):
        engine.forward(np.zeros(model.input_len - 1, dtype=np.int64))
    with pytest.raises(ShapeError):
        engine.forward(np.zeros((2, model.input_len + 3), dtype=np.int64))


def test_layer_profile_reports_storage_and_cycles():
    model = compile_model(default_float_model(seed=10))
    engine = MpuEngine(model)
    engine.forward(_random_inputs(np.random.default_rng(3), model, 2))
    prof = engine.layer_profile()
    assert [p["kind"] for p in prof] == ["conv1d", "conv1d", "linear", "linear"]
    assert all(p["cycles"] > 0 for p in prof)
    for p, layer in zip(prof, model.layers):
        assert p["storage_bits"] == layer.out_channels * layer.chunks * model.n * layer.mode_m


def test_narrow_table_budget_forces_monolithic_conv():
    cfg = CompileConfig(table_budget_bits=20)
    model = compile_model(default_float_model(seed=11), cfg)
    assert not any(layer.decomposed for layer in model.layers)
    engine = MpuEngine(model)
    u = _random_inputs(np.random.default_rng(4), model, 2)
    got = engine.forward(u)
    for i in range(2):
        assert np.array_equal(got[i], reference_logits(model, u[i]))


def test_layer_calls_pass_their_counter_by_keyword(monkeypatch):
    # the benchmark tracer wraps muxnet.engine.pe_forward and reads each
    # call's counters= delta as that layer's live counts
    model = compile_model(default_float_model(seed=12))
    engine = MpuEngine(model)
    deltas = []

    def traced(*args, **kwargs):
        assert "counters" in kwargs
        counters = kwargs["counters"]
        before = counters.as_tuple()
        out = pe_forward(*args, **kwargs)
        deltas.append(tuple(a - b for a, b in zip(counters.as_tuple(), before)))
        return out

    monkeypatch.setattr(muxnet.engine, "pe_forward", traced)
    engine.forward(_random_inputs(np.random.default_rng(5), model, 2))
    rows = predict_model_costs(model, engine.groups, engine.group_vector_len, batch=2)
    assert deltas == [(r.cycles, r.mux_selects, r.memory_bits_read) for r in rows]
