"""Signal front end and closed-loop stimulation on an exact timeline.

The front end decimates raw integer samples through a cascaded
integrator-comb filter (modular arithmetic at the Hogenauer register
width, so wraparound is by design and the output is still exact), chops
the decimated stream into segments, stages each epoch by early-stop
voting, and triggers per-channel PWM pulse schedules on configured
classes.

All event times are rational numbers (sample index over rate, decimal
config values read exactly), so logs carry no floating-point drift:
a 10 Hz / 10% duty schedule lands on the 100 ms grid exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO

import numpy as np

from .compiler import MAX_CLASSES
from .engine import MpuEngine
from .errors import BadArtifact, CorruptArtifact, LoopConfigError
from .pipeline import VotingConfig, classify_segment, epoch_stage
from .quantizer import activation_range, narrowest


def exact_seconds(value) -> Fraction:
    """Exact rational reading of a time/frequency value.

    Floats go through their decimal repr, so 0.1 becomes 1/10 rather than
    the binary-float neighbor.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(str(value))


# ---------------------------------------------------------------------------
# CIC decimation


@dataclass(frozen=True)
class CicConfig:
    stages: int = 3
    decimation: int = 8
    diff_delay: int = 1
    input_bits: int = 16

    def __post_init__(self) -> None:
        if self.stages < 1 or self.decimation < 2 or self.diff_delay < 1 or self.input_bits < 1:
            raise ValueError(
                f"bad CIC geometry: stages={self.stages} decimation={self.decimation} "
                f"diff_delay={self.diff_delay} input_bits={self.input_bits}"
            )
        if self.register_bits > 64:
            raise ValueError(
                f"register width {self.register_bits} exceeds the 64-bit software model"
            )

    @property
    def register_bits(self) -> int:
        """input_bits + N*ceil(log2(R*M)): wide enough that wrap never shows."""
        return self.input_bits + self.stages * math.ceil(
            math.log2(self.decimation * self.diff_delay)
        )

    @property
    def dc_gain(self) -> int:
        return (self.decimation * self.diff_delay) ** self.stages


def cic_decimate(x: np.ndarray, cfg: CicConfig) -> np.ndarray:
    """N integrators at input rate, decimate by R, N combs at output rate.

    Registers wrap modulo 2**register_bits; because that width meets the
    worst-case growth bound, the recovered two's-complement output equals
    the infinite-precision moving-average cascade exactly.  ``x`` (any
    integer dtype) is never widened: one working copy at the register word
    (uint32 up to 32 register bits, uint64 beyond) is all it takes.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise ValueError(f"CIC input must be integers, got {x.dtype}")
    lo, hi = activation_range(cfg.input_bits, True)
    if x.size and (int(x.min()) < lo or int(x.max()) > hi):
        raise ValueError(f"samples exceed {cfg.input_bits}-bit input range")
    # mod-2**32 (mod-2**64) arithmetic contains mod-2**W for every W <= 32
    # (W <= 64), so wrapping is free until the final mask
    word, signed = (np.uint32, np.int32) if cfg.register_bits <= 32 else (np.uint64, np.int64)
    spare = 8 * np.dtype(word).itemsize - cfg.register_bits
    v = x.astype(word)
    for _ in range(cfg.stages):
        np.cumsum(v, dtype=word, out=v)
    v = v[cfg.decimation - 1::cfg.decimation].copy()
    m = cfg.diff_delay
    for _ in range(cfg.stages):
        v[m:] -= v[:-m]  # numpy buffers the overlapping operand, so this reads the old registers
    # sign-extend the low register_bits of each register
    v <<= word(spare)
    out = v.view(signed)
    out >>= spare
    return out.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# stimulation schedules


@dataclass(frozen=True)
class StimChannelConfig:
    channel: int = 0
    trigger_classes: tuple[int, ...] = (2,)
    pwm_freq_hz: float = 10.0
    duty: float = 0.1
    duration_s: float = 5.0

    def __post_init__(self) -> None:
        if self.channel not in (0, 1):
            raise ValueError(f"channel must be 0 or 1, got {self.channel}")
        if any(not 0 <= c < MAX_CLASSES for c in self.trigger_classes):
            raise ValueError(
                f"trigger classes must be in 0..{MAX_CLASSES - 1}: {self.trigger_classes}")
        if not (exact_seconds(self.pwm_freq_hz) > 0 and exact_seconds(self.duration_s) > 0):
            raise ValueError("pwm_freq_hz and duration_s must be positive")
        duty = exact_seconds(self.duty)
        if not 0 < duty <= 1:
            raise ValueError(f"duty must be in (0, 1], got {self.duty}")


@dataclass(frozen=True)
class PulseEvent:
    t_on: Fraction
    t_off: Fraction
    channel: int

    def __post_init__(self) -> None:
        if not self.t_off > self.t_on:
            raise ValueError(f"pulse must have t_off > t_on, got [{self.t_on}, {self.t_off}]")


def trigger_schedule(decision: int, at, cfg: StimChannelConfig) -> list[PulseEvent]:
    """PWM pulse train for one decision, empty if the class does not trigger.

    floor(duration_s * pwm_freq_hz) whole periods starting at ``at``; the
    final partial period is truncated.  duty = 1 degenerates to one
    continuous pulse spanning duration_s.  Pulse times are integers over one
    common denominator of start, period and width, so each pulse is built
    from integer adds, with no rational multiply-add.
    """
    if decision not in cfg.trigger_classes:
        return []
    start = exact_seconds(at)
    freq = exact_seconds(cfg.pwm_freq_hz)
    duty = exact_seconds(cfg.duty)
    duration = exact_seconds(cfg.duration_s)
    if duty == 1:
        return [PulseEvent(start, start + duration, cfg.channel)]
    period = 1 / freq
    width = duty * period
    count = math.floor(duration * freq)
    den = math.lcm(start.denominator, period.denominator, width.denominator)
    t0, step, on = (v.numerator * (den // v.denominator) for v in (start, period, width))
    return [
        PulseEvent(Fraction(t, den), Fraction(t + on, den), cfg.channel)
        for t in range(t0, t0 + count * step, step)
    ]


# ---------------------------------------------------------------------------
# closed loop


@dataclass(frozen=True)
class LoopConfig:
    input_rate_hz: int = 512
    cic: CicConfig = CicConfig()
    segment_samples: int = 320
    votes_per_epoch: int = 6
    stim: tuple[StimChannelConfig, ...] = (StimChannelConfig(),)
    full_scale: float = 1.0  # real value assigned to a full-range decimated sample

    def __post_init__(self) -> None:
        """Every rule the config decides alone, so no signal is made from a bad one;
        ``validate`` adds the model's."""
        if self.input_rate_hz < self.cic.decimation or self.input_rate_hz % self.cic.decimation:
            raise LoopConfigError(
                f"input rate {self.input_rate_hz} is not a positive multiple of "
                f"decimation {self.cic.decimation}"
            )
        if self.segment_samples < 1:
            raise LoopConfigError("segment_samples must be >= 1")
        if self.votes_per_epoch < 1:
            raise LoopConfigError("votes_per_epoch must be >= 1")
        channels = [s.channel for s in self.stim]
        if len(set(channels)) != len(channels):
            raise LoopConfigError(f"duplicate stim channels: {channels}")
        if not self.full_scale > 0:
            raise LoopConfigError("full_scale must be positive")

    def validate(self, input_len: int) -> None:
        if self.segment_samples != input_len:
            raise LoopConfigError(
                f"segment_samples {self.segment_samples} does not match model input {input_len}"
            )

    @property
    def decimated_rate_hz(self) -> int:
        return self.input_rate_hz // self.cic.decimation

    @property
    def segment_seconds(self) -> Fraction:
        return Fraction(self.segment_samples, self.decimated_rate_hz)


@dataclass(frozen=True)
class Decision:
    t: Fraction
    epoch: int
    stage: int
    classifications_used: int
    votes: tuple[int, ...]


@dataclass
class RunLog:
    decisions: list[Decision] = field(default_factory=list)
    pulses: list[PulseEvent] = field(default_factory=list)


def run_closed_loop(
    engine: MpuEngine,
    samples: np.ndarray,
    cfg: LoopConfig,
    voting: VotingConfig | None = None,
) -> RunLog:
    """Source -> CIC -> segmenter -> early-stop voting -> PWM triggers.

    Segments are classified lazily (a vote already closed skips the rest of
    its epoch).  Retrigger policy: a channel ignores triggers while its
    previous schedule is still active.  The trailing partial epoch is
    dropped.
    """
    cfg.validate(engine.model.input_len * engine.model.input_channels)
    if voting is None:
        voting = VotingConfig(class_count=engine.model.class_count,
                              votes_per_epoch=cfg.votes_per_epoch)
    elif voting.votes_per_epoch != cfg.votes_per_epoch:
        raise LoopConfigError("voting config disagrees with loop votes_per_epoch")
    dec = cic_decimate(samples, cfg.cic)
    scale = cfg.full_scale / (cfg.cic.dc_gain * (1 << (cfg.cic.input_bits - 1)))
    x = np.multiply(dec, scale)
    seg_len, votes = cfg.segment_samples, cfg.votes_per_epoch
    epochs = len(x) // seg_len // votes
    log = RunLog()
    active_until: dict[int, Fraction] = {s.channel: Fraction(0) for s in cfg.stim}
    for e, epoch in enumerate(x[:epochs * votes * seg_len].reshape(epochs, votes, seg_len)):
        result = epoch_stage(epoch, lambda s: classify_segment(engine, s), voting)
        t_dec = (e * votes + result.classifications_used) * cfg.segment_seconds
        log.decisions.append(Decision(
            t=t_dec, epoch=e, stage=result.stage,
            classifications_used=result.classifications_used, votes=result.votes,
        ))
        for stim in cfg.stim:
            if t_dec < active_until[stim.channel]:
                continue  # previous schedule still running on this channel
            pulses = trigger_schedule(result.stage, t_dec, stim)
            if pulses:
                log.pulses.extend(pulses)
                active_until[stim.channel] = pulses[-1].t_off
    return log


_EVENT_ORDER = {"pulse_off": 0, "decision": 1, "pulse_on": 2}


def write_run_log(log: RunLog, stream: IO[str]) -> None:
    """JSON-lines log, one record per event, totally ordered by time.

    Records are {t, t_exact, kind, payload} with kind in
    decision | pulse_on | pulse_off; t_exact is the rational time "p/q".
    """
    events: list[tuple[Fraction, int, int, dict]] = []
    for d in log.decisions:
        events.append((d.t, _EVENT_ORDER["decision"], -1, {
            "kind": "decision",
            "payload": {"epoch": d.epoch, "stage": d.stage,
                        "classifications_used": d.classifications_used,
                        "votes": list(d.votes)},
        }))
    for p in log.pulses:
        events.append((p.t_on, _EVENT_ORDER["pulse_on"], p.channel,
                       {"kind": "pulse_on", "payload": {"channel": p.channel}}))
        events.append((p.t_off, _EVENT_ORDER["pulse_off"], p.channel,
                       {"kind": "pulse_off", "payload": {"channel": p.channel}}))
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
    for t, _, _, record in events:
        row = {"t": float(t), "t_exact": f"{t.numerator}/{t.denominator}", **record}
        stream.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic source and raw signal container


def synthetic_source(
    seed: int,
    seconds: float,
    cfg: LoopConfig,
    class_count: int = 5,
) -> tuple[np.ndarray, list[int]]:
    """Seeded toy signal: per-epoch sinusoid signature plus noise.

    Exists to exercise the loop deterministically; the per-class spectral
    shapes make no biological claims.  Returns (samples, epoch labels), the
    samples in the narrowest signed dtype that holds ``cfg.cic.input_bits``.
    """
    if seconds < 0 or math.isinf(seconds):  # a NaN is refused by int() below
        raise ValueError(f"seconds must be finite and non-negative, got {seconds}")
    rng = np.random.default_rng(seed)
    epoch_seconds = float(cfg.segment_seconds) * cfg.votes_per_epoch
    epochs = int(seconds / epoch_seconds)
    rate = cfg.input_rate_hz
    n_epoch = int(epoch_seconds * rate)
    lo, hi = activation_range(cfg.cic.input_bits, True)
    amp = 0.4 * (hi + 1)
    t = np.arange(n_epoch) / rate
    samples = np.empty(epochs * n_epoch, dtype=narrowest(lo, hi))
    labels: list[int] = []
    for out in samples.reshape(epochs, n_epoch):
        stage = int(rng.integers(class_count))
        labels.append(stage)
        tone = np.sin(2 * np.pi * (1.0 + 2.0 * stage) * t + rng.uniform(0, 2 * np.pi))
        noise = rng.normal(0.0, 0.3, size=n_epoch)
        # a rounded value clips to the same whole number before the cast as after
        np.clip(np.round(amp * (0.7 * tone + noise)), lo, hi, out=out, casting="unsafe")
    return samples, labels


_SIGNAL_HEADER = struct.Struct("<4sHIHHQ")
SIGNAL_MAGIC = b"MUXS"
SIGNAL_VERSION = 1


def write_signal(path, samples: np.ndarray, rate_hz: int, bits: int = 16, channels: int = 1) -> None:
    """Raw signed little-endian sample container; refuses, before creating
    the file, a sample that narrowing to the declared ``bits`` would wrap."""
    if not 1 <= bits <= 32:
        raise ValueError(f"signal bits must be in 1..32, got {bits}")
    s = np.asarray(samples)
    lo, hi = activation_range(bits, True)
    if s.size and (int(s.min()) < lo or int(s.max()) > hi):
        raise ValueError(f"samples outside the declared signed {bits}-bit range")
    with open(path, "wb") as fh:
        fh.write(_SIGNAL_HEADER.pack(SIGNAL_MAGIC, SIGNAL_VERSION, rate_hz, bits, channels, s.size))
        fh.write(np.ascontiguousarray(s, dtype="<i2" if bits <= 16 else "<i4"))


def read_signal(path) -> tuple[np.ndarray, int, int, int]:
    """Returns (samples, rate_hz, bits, channels), the samples at the
    payload's own width (``<i2`` or ``<i4``), read straight into one array."""
    with open(path, "rb") as fh:
        head = fh.read(_SIGNAL_HEADER.size)
        if len(head) < _SIGNAL_HEADER.size:
            raise CorruptArtifact("signal file shorter than its header")
        magic, version, rate, bits, channels, count = _SIGNAL_HEADER.unpack(head)
        if magic != SIGNAL_MAGIC:
            raise BadArtifact(f"bad magic {magic!r}, expected {SIGNAL_MAGIC!r}")
        if version != SIGNAL_VERSION:
            raise BadArtifact(f"unsupported signal version {version}")
        if rate < 1 or bits < 1 or bits > 32 or channels < 1:
            raise BadArtifact("non-positive signal geometry")
        width = 2 if bits <= 16 else 4
        body = os.fstat(fh.fileno()).st_size - _SIGNAL_HEADER.size  # checked before allocating
        if body != count * width:
            raise CorruptArtifact(f"signal payload is {body} bytes, header promises {count * width}")
        samples = np.empty(count, dtype=f"<i{width}")
        if fh.readinto(samples) != samples.nbytes:  # the file shrank after the size check
            raise CorruptArtifact("signal payload ended early")
    lo, hi = activation_range(bits, True)
    if samples.size and (int(samples.min()) < lo or int(samples.max()) > hi):
        raise BadArtifact(f"samples outside the declared signed {bits}-bit range")
    return samples, rate, bits, channels
