"""CIC decimation vs FIR oracle, exact schedules, closed loop, containers."""

import functools
import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muxnet.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, main
from muxnet.compiler import (
    ACT_NONE,
    CompiledLayer,
    CompiledModel,
    compile_model,
    default_float_model,
    save_model,
)
import muxnet.frontend
from muxnet.engine import MpuEngine
from muxnet.errors import BadArtifact, CorruptArtifact, LoopConfigError
from muxnet.frontend import (
    CicConfig,
    Decision,
    LoopConfig,
    PulseEvent,
    StimChannelConfig,
    cic_decimate,
    exact_seconds,
    read_signal,
    run_closed_loop,
    synthetic_source,
    trigger_schedule,
    write_run_log,
    write_signal,
)
from muxnet.reference import cic_dc_gain, cic_reference


def test_exact_seconds_reads_decimals_exactly():
    assert exact_seconds(0.1) == Fraction(1, 10)
    assert exact_seconds(2) == Fraction(2)
    assert exact_seconds(Fraction(3, 7)) == Fraction(3, 7)
    assert exact_seconds(0.25) == Fraction(1, 4)


def test_cic_register_width_and_gain():
    cfg = CicConfig(stages=3, decimation=8, diff_delay=1, input_bits=16)
    assert cfg.register_bits == 16 + 3 * 3
    assert cfg.dc_gain == 512
    assert CicConfig(stages=3, decimation=8, diff_delay=2).dc_gain == 16 ** 3
    with pytest.raises(ValueError):
        CicConfig(stages=13, decimation=16, diff_delay=1, input_bits=16)  # 68-bit register
    with pytest.raises(ValueError):
        CicConfig(decimation=1)


def test_cic_single_stage_is_block_sum():
    cfg = CicConfig(stages=1, decimation=4, diff_delay=1, input_bits=8)
    x = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    assert cic_decimate(x, cfg).tolist() == [4, 8]


def test_cic_two_stage_impulse():
    # kernel boxcar(2) * boxcar(2) = [1, 2, 1] sampled at phase 1
    cfg = CicConfig(stages=2, decimation=2, diff_delay=1, input_bits=8)
    x = np.array([1, 0, 0, 0, 0, 0])
    assert cic_decimate(x, cfg).tolist() == [2, 0, 0]


def test_cic_dc_gain_reached_on_constant_input():
    cfg = CicConfig(stages=3, decimation=8, diff_delay=2, input_bits=12)
    x = np.full(8 * 2 * 3 * 10, 5, dtype=np.int64)
    out = cic_decimate(x, cfg)
    assert out[-1] == 5 * cfg.dc_gain


CIC_GEOMETRIES = [(1, 4, 1), (2, 2, 1), (3, 8, 1), (3, 8, 2), (4, 16, 1), (2, 5, 2)]


@pytest.mark.parametrize("stages,decimation,diff_delay", CIC_GEOMETRIES)
def test_cic_matches_fir_reference(stages, decimation, diff_delay):
    cfg = CicConfig(stages=stages, decimation=decimation,
                    diff_delay=diff_delay, input_bits=16)
    rng = np.random.default_rng(stages * 100 + decimation)
    x = rng.integers(-32768, 32768, size=4096, dtype=np.int64)
    want = cic_reference(x, stages, decimation, diff_delay)
    # the samples are taken at their own width, unsigned ones too
    for dtype, low in ((np.int64, -32768), (np.int32, -32768), (np.int16, -32768), (np.uint16, 0)):
        y = np.maximum(x, low).astype(dtype)
        got = cic_decimate(y, cfg)
        assert got.dtype == np.int64, dtype
        assert np.array_equal(got, want if low else cic_reference(y, stages, decimation, diff_delay)), dtype
    assert cfg.dc_gain == cic_dc_gain(stages, decimation, diff_delay)


@pytest.mark.parametrize("stages,decimation,diff_delay", CIC_GEOMETRIES)
def test_cic_edge_lengths_match_fir_reference(stages, decimation, diff_delay):
    # empty, shorter than R, not a multiple of R, and decimated lengths of
    # diff_delay - 1 and diff_delay, where the in-place comb has no or
    # only its unchanged leading registers
    cfg = CicConfig(stages=stages, decimation=decimation,
                    diff_delay=diff_delay, input_bits=16)
    rng = np.random.default_rng(stages * 100 + decimation)
    r, m = decimation, diff_delay
    for n in (0, r - 1, 3 * r + 1, r * m - 1, r * m, r * m + r - 1):
        x = rng.integers(-32768, 32768, size=n).astype(np.int16)
        got = cic_decimate(x, cfg)
        want = cic_reference(x, stages, r, m)
        assert got.shape == want.shape == (n // r,) and want.dtype == np.int64, n
        assert np.array_equal(got, want), n


def _convolved_cic(x, stages, decimation, diff_delay):
    """The whole-signal form: an int64 copy of ``x`` convolved with the full kernel at input rate
    (``np.convolve`` refuses an empty signal, whose output is empty)."""
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    h = np.ones(decimation * diff_delay, dtype=np.int64)
    kernel = h
    for _ in range(stages - 1):
        kernel = np.convolve(kernel, h)
    return np.convolve(np.asarray(x, dtype=np.int64), kernel)[:len(x)][decimation - 1::decimation]


def test_cic_reference_equals_the_whole_signal_convolution():
    # lengths from empty through shorter than the kernel to many kernels, at each input width
    rng = np.random.default_rng(33)
    for _ in range(300):
        stages, r, m = int(rng.integers(1, 5)), int(rng.integers(2, 17)), int(rng.integers(1, 4))
        reach = stages * (r * m - 1) + 1
        n = int(rng.choice([0, int(rng.integers(0, r)), int(rng.integers(0, reach)),
                            int(rng.integers(reach, 6 * reach))]))
        dtype = rng.choice([np.int16, np.int32, np.int64])
        x = rng.integers(-32768, 32768, size=n).astype(dtype)
        got = cic_reference(x, stages, r, m)
        assert got.dtype == np.int64 and np.array_equal(got, _convolved_cic(x, stages, r, m)), \
            (stages, r, m, n, dtype)


@pytest.mark.parametrize("input_bits", [23, 24])
def test_cic_decimate_at_each_register_word(input_bits):
    # 32 register bits run the uint32 word, 33 the uint64 one; both equal the reference,
    # and the working copy is that word's size
    cfg = CicConfig(stages=3, decimation=8, diff_delay=1, input_bits=input_bits)
    assert cfg.register_bits == input_bits + 9
    lo, hi = -(1 << (input_bits - 1)), 1 << (input_bits - 1)
    x = np.random.default_rng(input_bits).integers(lo, hi, size=40_000).astype(np.int32)
    x[:64], x[64:128] = hi - 1, lo  # full-scale runs drive the registers to their extremes
    tracemalloc.start()
    try:
        got = cic_decimate(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, cic_reference(x, 3, 8, 1))
    word = 4 if cfg.register_bits <= 32 else 8
    assert word * x.size <= peak <= word * x.size + 2 * got.nbytes + 64 * 1024


def test_cic_reference_peak_memory_is_of_the_decimated_length():
    # a 230,400-sample int16 chunk: the output, one tap's products and numpy's
    # cast buffer; no int64 copy of the signal (1.8 MB) and no full-rate
    # convolution (1.8 MB more)
    x = np.random.default_rng(1).integers(-32768, 32768, size=230_400).astype(np.int16)
    tracemalloc.start()
    try:
        out = cic_reference(x, 3, 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * 28_800
    assert peak <= 2 * out.nbytes + 128 * 1024


def test_cic_rejects_non_integer_samples():
    with pytest.raises(ValueError):
        cic_decimate(np.zeros(16), CicConfig())


def test_cic_peak_memory_is_one_register_word_copy():
    # one working copy of the window at the register word (uint32 for the
    # default 25 register bits) plus the decimated output; the input is
    # neither widened past it nor copied per integrator
    cfg = CicConfig()
    n = 8 * 28_800
    x = np.random.default_rng(0).integers(-32768, 32768, size=n).astype(np.int16)
    tracemalloc.start()
    try:
        out = cic_decimate(x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 8 * (n // cfg.decimation)
    assert peak <= 4 * n + out.nbytes + 64 * 1024


def test_cic_integrator_wrap_is_invisible():
    # constant full-scale input long enough that the third integrator
    # register passes 2**64; the recovered output must still be exact
    cfg = CicConfig(stages=3, decimation=32, diff_delay=2, input_bits=16)
    t = 200000
    peak = 32767 * math.comb(t + 2, 3)  # third cumsum of a constant
    assert peak > 1 << 64
    x = np.full(t, 32767, dtype=np.int64)
    got = cic_decimate(x, cfg)
    want = cic_reference(x, 3, 32, 2)
    assert np.array_equal(got, want)


def test_cic_rejects_out_of_range_samples():
    cfg = CicConfig(input_bits=8)
    with pytest.raises(ValueError):
        cic_decimate(np.array([128]), cfg)
    with pytest.raises(ValueError):
        cic_decimate(np.array([-129]), cfg)


def test_trigger_schedule_is_on_the_exact_grid():
    cfg = StimChannelConfig(channel=0, trigger_classes=(2,),
                            pwm_freq_hz=10.0, duty=0.1, duration_s=5.0)
    pulses = trigger_schedule(2, Fraction(30), cfg)
    assert len(pulses) == 50
    for i, p in enumerate(pulses):
        assert p.t_on == 30 + Fraction(i, 10)
        assert p.t_off - p.t_on == Fraction(1, 100)
        assert p.channel == 0
    assert trigger_schedule(1, Fraction(30), cfg) == []


def test_trigger_schedule_truncates_partial_period():
    cfg = StimChannelConfig(pwm_freq_hz=2.5, duty=0.5, duration_s=1.0)
    pulses = trigger_schedule(2, 0, cfg)
    assert len(pulses) == 2  # floor(1.0 * 2.5)
    assert pulses[1].t_on == Fraction(2, 5)
    assert pulses[1].t_off == Fraction(2, 5) + Fraction(1, 5)


def test_trigger_schedule_duty_one_is_a_single_pulse():
    cfg = StimChannelConfig(duty=1.0, duration_s=5.0)
    pulses = trigger_schedule(2, Fraction(7, 2), cfg)
    assert pulses == [PulseEvent(Fraction(7, 2), Fraction(7, 2) + 5, 0)]


def positive_fractions(top: int):
    return st.builds(Fraction, st.integers(1, top), st.integers(1, 60))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(start=st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**4)),
       freq=positive_fractions(120),
       duty=st.one_of(st.just(Fraction(1)),
                      st.integers(1, 60).flatmap(lambda d: st.builds(Fraction, st.integers(1, d), st.just(d)))),
       duration=positive_fractions(40))
def test_trigger_schedule_equals_the_rational_formula(start, freq, duty, duration):
    # the pulse i at start + i/freq, duty/freq wide, in Fraction arithmetic
    if duty == 1:
        want = [(start, start + duration)]
    else:
        period = 1 / freq
        want = [(start + i * period, start + i * period + duty * period)
                for i in range(math.floor(duration * freq))]
    cfg = StimChannelConfig(pwm_freq_hz=freq, duty=duty, duration_s=duration)
    pulses = trigger_schedule(2, start, cfg)
    assert [(p.t_on, p.t_off) for p in pulses] == want
    assert all(type(t) is Fraction for p in pulses for t in (p.t_on, p.t_off))


def test_stim_config_validation():
    with pytest.raises(ValueError):
        StimChannelConfig(channel=2)
    with pytest.raises(ValueError, match="pwm_freq_hz and duration_s must be positive"):
        StimChannelConfig(pwm_freq_hz=0)
    with pytest.raises(ValueError):
        StimChannelConfig(duty=0.0)
    with pytest.raises(ValueError):
        StimChannelConfig(duty=1.5)
    assert StimChannelConfig(trigger_classes=(0, 9)).trigger_classes == (0, 9)
    with pytest.raises(ValueError, match=r"trigger classes must be in 0\.\.9: \(10,\)"):
        StimChannelConfig(trigger_classes=(10,))
    with pytest.raises(ValueError):
        PulseEvent(Fraction(1), Fraction(1), 0)


def test_loop_config_validation():
    ok = LoopConfig()
    ok.validate(320)
    assert ok.decimated_rate_hz == 64
    assert ok.segment_seconds == Fraction(5)
    with pytest.raises(LoopConfigError):
        LoopConfig(input_rate_hz=500).validate(320)  # 500 % 8 != 0
    with pytest.raises(LoopConfigError):
        LoopConfig(segment_samples=256).validate(320)
    with pytest.raises(LoopConfigError):
        LoopConfig(stim=(StimChannelConfig(channel=0),
                         StimChannelConfig(channel=0))).validate(320)
    with pytest.raises(LoopConfigError):
        LoopConfig(votes_per_epoch=0).validate(320)
    with pytest.raises(LoopConfigError):
        LoopConfig(full_scale=0.0).validate(320)


def test_loop_config_refuses_at_construction_what_it_decides_alone():
    # no model is needed to refuse these, so make-signal refuses them too
    for bad in ({"input_rate_hz": 0}, {"input_rate_hz": -8}, {"input_rate_hz": 4},
                {"segment_samples": 0}, {"votes_per_epoch": 0}, {"full_scale": float("nan")}):
        with pytest.raises(LoopConfigError):
            LoopConfig(**bad)
    for seconds in (math.inf, -1.0):
        with pytest.raises(ValueError, match="seconds must be finite and non-negative"):
            synthetic_source(0, seconds, LoopConfig())


def _constant_class_model(winner: int = 2) -> CompiledModel:
    """One linear layer, zero weights, bias picks the winner: classify is
    input-independent, which pins the loop timeline for exact assertions."""
    out = 5
    chunks = 160
    bias = np.zeros(out, dtype=np.int64)
    bias[winner] = 5
    layer = CompiledLayer(
        kind="linear", mode_m=5, decomposed=False,
        in_channels=320, out_channels=out, kernel=0, stride=1,
        fan_in=320, chunks=chunks,
        line_indices=np.zeros((out, chunks), dtype=np.int64),
        bias_q=bias, mult=np.zeros(out, dtype=np.int64), shift=1,
        requant=False, activation=ACT_NONE, activation_bits=8,
        activation_signed=False, weight_scales=np.ones(out),
        in_scale=1.0 / 128.0, out_scale=None,
    )
    return CompiledModel(n=2, input_len=320, input_channels=1,
                         input_zero_point=128, input_scale=1.0 / 128.0,
                         layers=[layer])


def test_closed_loop_fixture_timeline():
    engine = MpuEngine(_constant_class_model(winner=2))
    cfg = LoopConfig()
    samples = np.zeros(512 * 35, dtype=np.int64)  # one epoch plus a partial
    log = run_closed_loop(engine, samples, cfg)
    assert log.decisions == [Decision(
        t=Fraction(20), epoch=0, stage=2, classifications_used=4,
        votes=(2, 2, 2, 2),
    )]
    assert len(log.pulses) == 50
    assert log.pulses[0] == PulseEvent(Fraction(20), Fraction(2001, 100), 0)
    assert log.pulses[-1].t_on == Fraction(249, 10)
    assert log.pulses[-1].t_off == Fraction(2491, 100)


def test_closed_loop_no_trigger_classes():
    engine = MpuEngine(_constant_class_model(winner=2))
    cfg = LoopConfig(stim=(StimChannelConfig(trigger_classes=()),))
    log = run_closed_loop(engine, np.zeros(512 * 30, dtype=np.int64), cfg)
    assert len(log.decisions) == 1 and log.pulses == []


def test_closed_loop_retrigger_skipped_while_active():
    engine = MpuEngine(_constant_class_model(winner=2))
    long_stim = StimChannelConfig(duration_s=31.0)  # outlives the next decision
    cfg = LoopConfig(stim=(long_stim,))
    log = run_closed_loop(engine, np.zeros(512 * 60, dtype=np.int64), cfg)
    assert [d.t for d in log.decisions] == [Fraction(20), Fraction(50)]
    assert len(log.pulses) == 310  # second decision fell inside the first schedule
    assert log.pulses[-1].t_off == 20 + Fraction(309, 10) + Fraction(1, 100)


def test_closed_loop_two_channels_independent():
    engine = MpuEngine(_constant_class_model(winner=2))
    cfg = LoopConfig(stim=(
        StimChannelConfig(channel=0, trigger_classes=(2,), duration_s=1.0),
        StimChannelConfig(channel=1, trigger_classes=(2,), duty=1.0, duration_s=2.0),
    ))
    log = run_closed_loop(engine, np.zeros(512 * 30, dtype=np.int64), cfg)
    by_channel = {0: [], 1: []}
    for p in log.pulses:
        by_channel[p.channel].append(p)
    assert len(by_channel[0]) == 10
    assert by_channel[1] == [PulseEvent(Fraction(20), Fraction(22), 1)]


def test_closed_loop_rejects_mismatched_voting():
    from muxnet.pipeline import VotingConfig
    engine = MpuEngine(_constant_class_model())
    with pytest.raises(LoopConfigError):
        run_closed_loop(engine, np.zeros(512 * 30, dtype=np.int64), LoopConfig(),
                        voting=VotingConfig(class_count=5, votes_per_epoch=4))


def test_run_log_is_ordered_deterministic_jsonl(tmp_path):
    engine = MpuEngine(_constant_class_model(winner=2))
    log = run_closed_loop(engine, np.zeros(512 * 30, dtype=np.int64), LoopConfig())
    import io
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_run_log(log, buf1)
    write_run_log(log, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    rows = [json.loads(line) for line in buf1.getvalue().splitlines()]
    assert len(rows) == 1 + 2 * 50
    assert rows[0]["kind"] == "decision"
    assert rows[0]["t_exact"] == "20/1"
    assert rows[0]["payload"]["votes"] == [2, 2, 2, 2]
    assert rows[1] == {"kind": "pulse_on", "payload": {"channel": 0},
                       "t": 20.0, "t_exact": "20/1"}
    times = [Fraction(r["t_exact"]) for r in rows]
    assert times == sorted(times)
    for r in rows:
        assert math.isclose(r["t"], float(Fraction(r["t_exact"])))


def test_synthetic_source_is_seeded_and_in_range():
    cfg = LoopConfig()
    a, la = synthetic_source(7, 60.0, cfg)
    b, lb = synthetic_source(7, 60.0, cfg)
    c, _ = synthetic_source(8, 60.0, cfg)
    assert np.array_equal(a, b) and la == lb
    assert not np.array_equal(a, c)
    assert len(la) == 2 and a.size == 2 * 512 * 30
    lim = 1 << 15
    assert a.min() >= -lim and a.max() < lim


def test_synthetic_source_draws_pinned_samples():
    # digest of the int64 values that the list-and-concatenate generator
    # returned; the narrow in-place generator must draw the same numbers
    samples, labels = synthetic_source(7, 60.0, LoopConfig())
    assert labels == [4, 3]
    digest = hashlib.sha256(samples.astype("<i8").tobytes()).hexdigest()
    assert digest == "06ad6797254d920637cc96014048d8558255d3c4cb17dc3a67b8be489c2c572b"


def test_synthetic_source_dtype_follows_input_bits():
    for bits, dtype in ((8, np.int8), (12, np.int16), (20, np.int32)):
        cfg = LoopConfig(cic=CicConfig(input_bits=bits))
        samples, _ = synthetic_source(7, 30.0, cfg)
        assert samples.dtype == dtype
        lim = 1 << (bits - 1)
        assert samples.min() >= -lim and samples.max() < lim
    empty, labels = synthetic_source(7, 1.0, LoopConfig())
    assert empty.size == 0 and empty.dtype == np.int16 and labels == []


def test_synthetic_source_peak_memory_is_its_output():
    # the int16 output plus a few epochs of float64 temporaries, not a list
    # of int64 epochs, their concatenation and a clipped copy
    cfg = LoopConfig()
    n_epoch = cfg.input_rate_hz * int(cfg.segment_seconds) * cfg.votes_per_epoch
    tracemalloc.start()
    try:
        samples, _ = synthetic_source(11, 600.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.dtype == np.int16 and samples.size == 20 * n_epoch
    assert peak <= samples.nbytes + 8 * n_epoch * 8


def test_closed_loop_end_to_end_deterministic():
    model = compile_model(default_float_model(seed=0))
    cfg = LoopConfig()
    samples, _ = synthetic_source(3, 90.0, cfg)
    a = run_closed_loop(MpuEngine(model), samples, cfg)
    b = run_closed_loop(MpuEngine(model), samples, cfg)
    assert a.decisions == b.decisions and a.pulses == b.pulses
    assert len(a.decisions) == 3


def test_signal_container_roundtrip(tmp_path):
    path = tmp_path / "sig.muxs"
    rng = np.random.default_rng(0)
    samples = rng.integers(-32768, 32768, size=1000, dtype=np.int64)
    write_signal(path, samples, rate_hz=512, bits=16, channels=1)
    back, rate, bits, channels = read_signal(path)
    assert np.array_equal(back, samples)
    assert (rate, bits, channels) == (512, 16, 1)


def test_signal_container_keeps_the_payload_width(tmp_path):
    path = tmp_path / "sig.muxs"
    for bits, dtype in ((12, np.int16), (16, np.int16), (24, np.int32)):
        lim = 1 << (bits - 1)
        samples = np.array([-lim, -1, 0, 1, lim - 1])
        write_signal(path, samples, rate_hz=512, bits=bits)
        back, _, got_bits, _ = read_signal(path)
        assert back.dtype == dtype and got_bits == bits
        assert np.array_equal(back, samples)


def test_write_signal_refuses_samples_outside_declared_width(tmp_path):
    # narrowing would wrap them: 40000 and 70000 read back as -25536 and
    # 4464 at 16 bits, and 3000 at 12 bits makes a file the reader refuses
    for samples, bits in (([0, 40000, 70000], 16), ([3000], 12), ([-2049], 12)):
        path = tmp_path / f"bad{bits}.muxs"
        with pytest.raises(ValueError, match=f"signed {bits}-bit"):
            write_signal(path, np.array(samples), rate_hz=512, bits=bits)
        assert not path.exists()
    with pytest.raises(ValueError):
        write_signal(tmp_path / "wide.muxs", np.zeros(4), rate_hz=512, bits=40)
    assert not (tmp_path / "wide.muxs").exists()


def test_read_signal_peak_memory_is_its_payload(tmp_path):
    path = tmp_path / "sig.muxs"
    samples = np.random.default_rng(0).integers(-32768, 32768, size=200_000).astype(np.int16)
    write_signal(path, samples, rate_hz=512)
    tracemalloc.start()
    try:
        back, *_ = read_signal(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, samples)
    assert peak <= samples.nbytes + 64 * 1024


def test_signal_container_rejects_damage(tmp_path):
    path = tmp_path / "sig.muxs"
    write_signal(path, np.arange(10), rate_hz=512)
    data = path.read_bytes()
    bad = tmp_path / "bad.muxs"
    bad.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(BadArtifact):
        read_signal(bad)
    short = tmp_path / "short.muxs"
    short.write_bytes(data[:-3])
    with pytest.raises(CorruptArtifact):
        read_signal(short)
    stub = tmp_path / "stub.muxs"
    stub.write_bytes(data[:5])
    with pytest.raises(CorruptArtifact):
        read_signal(stub)
    long = tmp_path / "long.muxs"
    long.write_bytes(data + b"\0\0")
    with pytest.raises(CorruptArtifact):
        read_signal(long)
    huge = tmp_path / "huge.muxs"  # a count no file could hold is refused before allocating
    huge.write_bytes(data[:14] + struct.pack("<Q", 1 << 62) + data[22:])
    with pytest.raises(CorruptArtifact, match="header promises"):
        read_signal(huge)


@functools.cache
def _loop_model(root) -> str:
    """The default compiled model, written once under ``root`` for the loop command."""
    path = root / "model.muxn"
    save_model(compile_model(default_float_model(seed=0)), path)
    return str(path)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_mutated_signal_reads_or_is_refused(tmp_path_factory, data):
    # 12 s at the default loop's 512 Hz / 16 bits / 1 channel, header bytes weighted
    samples = np.random.default_rng(7411).integers(-2**15, 2**15, size=512 * 12).astype("<i2")
    blob = muxnet.frontend._SIGNAL_HEADER.pack(b"MUXS", 1, 512, 16, 1, samples.size) + samples.tobytes()
    head = muxnet.frontend._SIGNAL_HEADER.size
    at = st.one_of(st.integers(0, head - 1), st.integers(0, len(blob) - 1))
    mutated = bytearray(blob)
    for i, byte in data.draw(st.lists(st.tuples(at, st.integers(0, 255)), min_size=1, max_size=3)):
        mutated[i] = byte
    root = tmp_path_factory.getbasetemp()
    path = root / "mutated.muxs"
    path.write_bytes(mutated)
    try:
        got, rate, bits, channels = read_signal(path)
    except (BadArtifact, CorruptArtifact):
        want = EXIT_INPUT
    else:
        assert np.array_equal(got, np.frombuffer(bytes(mutated), dtype=got.dtype, offset=head))
        want = EXIT_OK if (rate, bits, channels) == (512, 16, 1) else EXIT_CONFIG  # the config's signal
    if data.draw(st.integers(0, 19)) == 0:  # a few through the command line
        out = root / "mutated.jsonl"
        assert main(["loop", "--model", _loop_model(root), "--signal", str(path), "--out", str(out)]) == want


def _signal_header(data: bytes, field: int, value: int) -> bytes:
    """``data`` with one field of its (magic, version, rate, bits, channels, count) header set."""
    values = list(struct.unpack_from("<4sHIHHQ", data))
    values[field] = value
    return struct.pack("<4sHIHHQ", *values) + data[struct.calcsize("<4sHIHHQ"):]


@pytest.mark.parametrize("field, value, match", [
    (1, 2, "unsupported signal version 2"),
    (2, 0, "non-positive signal geometry"),  # rate
    (3, 0, "non-positive signal geometry"),  # bits
    (3, 33, "non-positive signal geometry"),  # past the 4-byte payload
    (4, 0, "non-positive signal geometry"),  # channels
])
def test_read_signal_refuses_a_bad_header_by_name(tmp_path, field, value, match):
    path = tmp_path / "sig.muxs"
    write_signal(path, np.arange(10), rate_hz=512)
    path.write_bytes(_signal_header(path.read_bytes(), field, value))
    with pytest.raises(BadArtifact, match=match):
        read_signal(path)


def test_read_signal_refuses_a_payload_that_ends_before_its_size_said(tmp_path, monkeypatch):
    # the payload is read after its size is checked: a file that shrinks in between
    # (here, one whose size reads two samples longer than it is) is refused, not short-read
    path = tmp_path / "sig.muxs"
    write_signal(path, np.arange(10), rate_hz=512)
    path.write_bytes(_signal_header(path.read_bytes(), 5, 12))
    monkeypatch.setattr(muxnet.frontend, "os", SimpleNamespace(
        fstat=lambda fd: SimpleNamespace(st_size=path.stat().st_size + 4)))
    with pytest.raises(CorruptArtifact, match="signal payload ended early"):
        read_signal(path)
