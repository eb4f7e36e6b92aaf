"""muxnet benchmark: closed-loop latency, batch-eval throughput, compile time.

    python3 bench/run.py --workload closed_loop --seed 0 --seconds 30 --trace 0

Every run drives four phases of the public API, each in short timing
windows:

* setup -- default checkpoint -> compile -> serialize -> deserialize ->
  ``MpuEngine``; one window is one checkpoint-to-engine round trip;
* loop  -- a seeded ``synthetic_source`` signal replayed through
  ``run_closed_loop``, one eighth of it per window; batch-1
  classifications, each starting when the previous one ends;
* eval  -- seeded raw segments scored by ``MpuEngine.forward``, one batch of
  100 per window;
* sweep -- seeded float checkpoints over input length and conv mode, all
  compiled, serialized, deserialized and loaded in one window.

The workload names the phase that gets two windows in every round; the
other phases get one (setup four), so every end-to-end metric is reported
on every workload.  Rounds repeat for ``--seconds`` (and until every input was used
once).  The workload's phase runs its first window before the other phases
exist, so ``peak_rss_mb`` is that phase's peak.

Timings are medians of the thread's CPU time (see ``Times``): of a
phase's windows for ``setup_s`` and the throughputs, of every
``classify_segment`` call in the run for the decision latency (its 90th
percentile and the sample count are printed beside it).  Each window, and
each call in it, is scaled to a fixed host speed measured by a probe run
between every two windows (see ``HostSpeed``); the unscaled medians are
printed beside them as ``.raw``.
Interleaving the windows gives every phase the same share of the slow
stretches of a shared host.

Every timed output is gated: logits and classes against
``reference_logits``, live counters against ``costmodel``, artifacts
against a serialize round trip, run logs against their first replay.  A
disagreement makes ``correct`` false and the exit code 1.  ``--trace 1``
runs the same windows with spans recorded around the public functions
(see ``tracing.py``), reports per-layer metrics instead and writes the
spans to ``bench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# before numpy loads: float_forward calls BLAS, whose pool would otherwise
# start one thread per core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
if not (SRC / "muxnet" / "__init__.py").is_file():
    raise SystemExit(f"bench: no muxnet sources under {SRC}")
sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from muxnet import compiler, costmodel, frontend, reference  # noqa: E402
from muxnet.engine import MpuEngine  # noqa: E402

WORKLOADS = {"closed_loop": "loop", "batch_eval": "eval", "compile_sweep": "sweep"}
TRIGGER_CLASSES = (4,)  # the default checkpoint decides almost only classes 0 and 4
GATE_BATCH = 4
PRIMARY_SHARE = 2  # windows of the workload's phase per round
SETUP_WINDOWS = 5
SETUP_SHARE = 4  # setup windows per round: they are short, and setup_s is a median
PROBE_REF_S = 0.0025  # HostSpeed probe, CPU seconds on an idle 2-vCPU Xeon guest
LOOP_WINDOWS = 8  # each a whole number of epochs
EVAL_BATCH = 100
SWEEP_CONV_M = (10, 6)  # m=10 decomposed, m=6 monolithic
SWEEP_WINDOWS = 3


@dataclass(frozen=True)
class Sizes:
    loop_signal_s: int = 3600  # 120 epochs, about 500 classifications
    eval_segments: int = 400  # a multiple of EVAL_BATCH
    sweep_lengths: tuple[int, ...] = (320, 640, 1280)
    sweep_inputs: int = 40  # per model, for the checks; a multiple of GATE_BATCH


FULL = Sizes()


class Gate:
    """Counts checked outputs and disagreements; keeps the first few messages."""

    def __init__(self):
        self.checked = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, checked: int, failed: int, what: str) -> None:
        self.checked += checked
        self.failed += failed
        if failed and len(self.messages) < 8:
            self.messages.append(f"{what}: {failed} of {checked} disagree")

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)

    def rows(self, got, want, what: str) -> None:
        same = (got == want).all(axis=1)
        self.record(len(same), int((~same).sum()), what)


class Times:
    """Per-window CPU seconds of this thread, and each window's host scale.

    CPU time, not wall time: the work is one thread with no I/O and no
    waiting, so on a dedicated core the two are equal, and on a shared
    virtual machine the kernel leaves out of CPU time the time the host gave
    this vCPU to other guests (steal time).
    """

    def __init__(self):
        self.cpu: list[float] = []
        self.scale: list[float] = []  # see HostSpeed.scale_since

    def median(self) -> float:
        """Median window at the reference host speed."""
        return statistics.median(c * s for c, s in zip(self.cpu, self.scale))

    def median_raw(self) -> float:
        return statistics.median(self.cpu)

    @contextlib.contextmanager
    def timed(self):
        cpu0 = time.thread_time()
        yield
        self.cpu.append(time.thread_time() - cpu0)


class HostSpeed:
    """A fixed probe, unrelated to muxnet, timed between every two windows.

    Co-tenants of a shared host slow stretches of a run, CPU time included
    (they share the core's pipeline, caches and clock), by up to 1.7x for
    seconds to minutes.  The probe mixes the kinds of work the phases do --
    an interpreted loop, small gathers, one large gather -- so it slows with
    them, and every window is reported at the host speed under which the
    probe takes ``PROBE_REF_S``: its time is multiplied by
    ``scale_since``, the ratio of ``PROBE_REF_S`` to the mean of the probes
    just before and just after it.  The probe runs no muxnet code, so a
    change to the program moves the timings and leaves the scale alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(-512, 512, size=(32, 1024))
        self.row_idx = rng.integers(0, 1024, size=(32, 200))
        self.table = rng.integers(-512, 512, size=1 << 18)
        self.table_idx = rng.integers(0, 1 << 18, size=150_000)
        self.times = Times()
        self.probe()

    def probe(self) -> None:
        with self.times.timed():
            total = 0
            for i in range(10_000):
                total += i * i & 7
            acc = np.zeros(200, dtype=np.int64)
            for _ in range(10):
                for row, idx in zip(self.rows, self.row_idx):
                    acc += row[idx]
            self.table[self.table_idx].sum()

    def scale_since(self, before: float) -> float:
        """Probe once more; reference seconds per CPU second since the probe ``before``."""
        self.probe()
        return 2 * PROBE_REF_S / (before + self.times.cpu[-1])


class Bench:
    """State shared by the phases of one run."""

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.gate = Gate()
        self.tracer = None
        self.engine = None  # the default engine, from the first setup window
        self.artifact = b""

    def check_counters(self, engine, batch: int, calls: int, what: str) -> None:
        """Live counters since the last reset against costmodel for ``calls`` forwards."""
        rows = costmodel.predict_model_costs(
            engine.model, engine.groups, engine.group_vector_len, batch)
        for name in ("cycles", "mux_selects", "memory_bits_read"):
            got, want = getattr(engine.counters, name), calls * sum(getattr(r, name) for r in rows)
            self.gate.check(got == want, f"{what}: counter {name} {got} != costmodel {want}")
        for li, (live, row) in enumerate(zip(engine.layer_profile(), rows)):
            want = calls * row.cycles
            self.gate.check(live["cycles"] == want,
                            f"{what}: layer {li} cycles {live['cycles']} != costmodel {want}")


class SetupPhase:
    """Default checkpoint to a ready engine."""

    name = "setup"

    def __init__(self, bench: Bench):
        self.b = bench
        self.float_model = compiler.default_float_model(0)
        self.min_windows = SETUP_WINDOWS
        self.times = Times()

    def window(self, i: int) -> None:
        b = self.b
        with self.times.timed():
            blob = compiler.serialize_model(compiler.compile_model(self.float_model))
            engine = MpuEngine(compiler.deserialize_model(blob))
        b.gate.check(compiler.serialize_model(engine.model) == blob,
                     "setup: serialize(deserialize(artifact)) != artifact")
        if b.engine is None:
            b.engine, b.artifact = engine, blob
        else:
            b.gate.check(blob == b.artifact, "setup: artifact differs between compiles")

    def metrics(self) -> dict:
        return {"setup_s": self.times.median(), "setup_s.raw": self.times.median_raw()}


class LoopPhase:
    """Closed loop over a seeded signal; every vote is checked against the reference."""

    name = "loop"

    def __init__(self, bench: Bench):
        self.b = bench
        sizes = bench.sizes
        stim = frontend.StimChannelConfig(trigger_classes=TRIGGER_CLASSES)
        self.cfg = frontend.LoopConfig(stim=(stim,))
        samples, labels = frontend.synthetic_source(
            bench.seed, sizes.loop_signal_s, self.cfg, class_count=bench.engine.model.class_count)
        if not labels or len(labels) % LOOP_WINDOWS:
            raise ValueError(f"{len(labels)} epochs do not split into {LOOP_WINDOWS} windows")
        self.chunks = np.split(samples, LOOP_WINDOWS)
        self.chunk_s = len(self.chunks[0]) / self.cfg.input_rate_hz
        self.ref_classes = [self._reference_classes(chunk) for chunk in self.chunks]
        self.replays: list[tuple | None] = [None] * len(self.chunks)
        self.min_windows = len(self.chunks)
        self.times = Times()
        self.calls: list[list[float]] = []  # CPU seconds of each classify_segment call, per window

    def _reference_classes(self, samples) -> list[int]:
        """Class of every segment by the convolution CIC and the direct-MAC path."""
        cfg, model = self.cfg, self.b.engine.model
        cic = cfg.cic
        dec = reference.cic_reference(samples, cic.stages, cic.decimation, cic.diff_delay)
        gain = reference.cic_dc_gain(cic.stages, cic.decimation, cic.diff_delay)
        x = dec.astype(float) * (cfg.full_scale / (gain * (1 << (cic.input_bits - 1))))
        seg = cfg.segment_samples
        return [
            int(reference.reference_logits(
                model, compiler.quantize_input(x[i * seg:(i + 1) * seg], model)).argmax())
            for i in range(len(x) // seg)
        ]

    def window(self, i: int) -> None:
        engine, gate = self.b.engine, self.b.gate
        k = i % len(self.chunks)
        engine.reset_counters()
        self.calls.append([])
        with tracing.call_timer(frontend, "classify_segment", self.calls[-1]), \
                self.times.timed():
            log = frontend.run_closed_loop(engine, self.chunks[k], self.cfg)

        ref = self.ref_classes[k]
        per_epoch = self.cfg.votes_per_epoch
        checked = mismatched = 0
        for d in log.decisions:
            want = ref[d.epoch * per_epoch:d.epoch * per_epoch + d.classifications_used]
            counts = [d.votes.count(c) for c in range(engine.model.class_count)]
            checked += len(want) + 1
            mismatched += sum(v != w for v, w in zip(d.votes, want)) + (len(d.votes) != len(want))
            mismatched += d.stage != counts.index(max(counts))
        gate.record(checked, mismatched, "loop: votes or stages against the reference")
        calls = sum(d.classifications_used for d in log.decisions)
        self.b.check_counters(engine, 1, calls, "loop")

        stream = io.StringIO()
        frontend.write_run_log(log, stream)
        replay = (hashlib.sha256(stream.getvalue().encode()).hexdigest(),
                  calls, len(log.decisions), len(log.pulses))
        if self.replays[k] is None:
            self.replays[k] = replay
            if None not in self.replays:
                gate.check(self.totals()[3] > 0, "loop: no stimulation pulse was triggered")
        else:
            gate.check(replay == self.replays[k], f"loop: window {k} replays differently")

    def totals(self) -> tuple[str, int, int, int]:
        """(run log digest, classifications, epochs, pulses) over the whole signal."""
        digest = hashlib.sha256("".join(r[0] for r in self.replays).encode()).hexdigest()
        return (digest,) + tuple(sum(r[j] for r in self.replays) for j in (1, 2, 3))

    def metrics(self) -> dict:
        _, calls, epochs, _ = self.totals()
        report = costmodel.model_cost_report(self.b.engine.model)
        latencies = [c * s for window, s in zip(self.calls, self.times.scale) for c in window]
        return {
            "loop_realtime_x": self.chunk_s / self.times.median(),
            "loop_realtime_x.raw": self.chunk_s / self.times.median_raw(),
            "decision_ms_p50": 1e3 * statistics.median(latencies),
            "decision_ms_p50.raw": 1e3 * statistics.median(c for w in self.calls for c in w),
            "decision_ms_p90": 1e3 * statistics.quantiles(latencies, n=10)[-1],
            "decision_ms.samples": len(latencies),
            "classifications_per_epoch": calls / epochs,
            "modeled_cycles_per_decision": report.cycles * calls / epochs,
            "modeled_energy_units_per_decision":
                report.energy(costmodel.EnergyCoefficients()) * calls / epochs,
        }


class EvalPhase:
    """Seeded raw segments scored one batch per window; every row is checked."""

    name = "eval"

    def __init__(self, bench: Bench):
        self.b = bench
        model, sizes = bench.engine.model, bench.sizes
        rng = np.random.default_rng([bench.seed, 1])
        width = model.input_channels * model.input_len
        self.u = rng.integers(0, 256, size=(sizes.eval_segments, width))
        self.want = np.stack([reference.reference_logits(model, row) for row in self.u])
        if len(self.u) % EVAL_BATCH:
            raise ValueError(f"{len(self.u)} segments do not split into batches of {EVAL_BATCH}")
        self.batches = self.min_windows = len(self.u) // EVAL_BATCH
        self.times = Times()

    def window(self, i: int) -> None:
        engine = self.b.engine
        lo = (i % self.batches) * EVAL_BATCH
        rows = self.u[lo:lo + EVAL_BATCH]
        engine.reset_counters()
        with self.times.timed():
            got = engine.forward(rows)
        self.b.gate.rows(got, self.want[lo:lo + EVAL_BATCH], "eval: logits against the reference")
        self.b.check_counters(engine, len(rows), 1, "eval")

    def metrics(self) -> dict:
        return {"eval_segments_per_s": EVAL_BATCH / self.times.median(),
                "eval_segments_per_s.raw": EVAL_BATCH / self.times.median_raw()}


class SweepPhase:
    """Seeded checkpoints over input length and conv mode, checkpoint to engine."""

    name = "sweep"

    def __init__(self, bench: Bench):
        self.b = bench
        sizes = bench.sizes
        self.cases = []
        for i, (length, conv_m) in enumerate(
                (L, m) for L in sizes.sweep_lengths for m in SWEEP_CONV_M):
            fm = compiler.default_float_model(seed=bench.seed * 1000 + i, input_len=length)
            rng = np.random.default_rng([bench.seed, 2, i])
            x = np.clip(rng.normal(0.0, 0.35, size=(sizes.sweep_inputs, length)), -1.0, 127 / 128)
            self.cases.append((fm, compiler.CompileConfig(conv_m=conv_m), x))
        self.min_windows = SWEEP_WINDOWS
        self.times = Times()
        self.artifacts: list[bytes] | None = None
        self.agree = self.inputs = 0

    def window(self, i: int) -> None:
        gate = self.b.gate
        built = []
        with self.times.timed():
            for fm, cc, _ in self.cases:
                blob = compiler.serialize_model(compiler.compile_model(fm, cc))
                built.append((blob, MpuEngine(compiler.deserialize_model(blob))))
        for blob, engine in built:
            gate.check(compiler.serialize_model(engine.model) == blob,
                       "sweep: serialize(deserialize(artifact)) != artifact")
        if self.artifacts is not None:
            for (blob, _), first in zip(built, self.artifacts):
                gate.check(blob == first, "sweep: artifact differs between windows")
            return
        self.artifacts = [blob for blob, _ in built]
        for (fm, _, x), (_, engine) in zip(self.cases, built):
            model = engine.model
            u = compiler.quantize_input(x, model)
            # small batches keep the sweep's peak memory that of compiling
            got = np.concatenate([engine.forward(u[j:j + GATE_BATCH])
                                  for j in range(0, len(u), GATE_BATCH)])
            want = np.stack([reference.reference_logits(model, row) for row in u])
            gate.rows(got, want, "sweep: logits against the reference")
            self.b.check_counters(engine, GATE_BATCH, len(u) // GATE_BATCH, "sweep")
            float_top1 = np.array([reference.float_forward(fm, row).argmax() for row in x])
            self.agree += int((got.argmax(axis=1) == float_top1).sum())
            self.inputs += len(x)

    def metrics(self) -> dict:
        return {
            "compile_models_per_s": len(self.cases) / self.times.median(),
            "compile_models_per_s.raw": len(self.cases) / self.times.median_raw(),
            "float_top1_agreement": self.agree / self.inputs,
        }


PHASES = {"loop": LoopPhase, "eval": EvalPhase, "sweep": SweepPhase}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "muxnet").glob("*.py")))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL):
    """Run every phase in rounds for ``seconds``.  Returns (bench, phases, metrics)."""
    bench = Bench(seed, sizes)
    tracer = bench.tracer = tracing.Tracer() if trace else None

    def traced(phase_name: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.phase = phase_name
        return tracer.installed()

    counts: dict[str, int] = {}
    host = HostSpeed()

    def window(phase) -> None:
        i = counts.get(phase.name, 0)
        counts[phase.name] = i + 1
        before = host.times.cpu[-1]
        with traced(phase.name):
            phase.window(i)
        phase.times.scale.append(host.scale_since(before))

    setup = SetupPhase(bench)
    window(setup)
    primary_name = WORKLOADS[workload]
    with traced(primary_name):
        primary = PHASES[primary_name](bench)
    metrics: dict[str, float] = {}
    if tracer is not None:  # the same window with and without spans, three times each
        plain, spanned = [], []
        for _ in range(3):
            primary.window(0)
            plain.append(primary.times.cpu.pop())
            with traced(primary_name):
                primary.window(0)
            spanned.append(primary.times.cpu.pop())
        metrics["bench.tracing_overhead"] = statistics.median(spanned) / statistics.median(plain)
    window(primary)
    metrics["peak_rss_mb"] = peak_rss_mb()

    phases = {"setup": setup, primary_name: primary}
    for name in PHASES:
        if name not in phases:
            with traced(name):
                phases[name] = PHASES[name](bench)
    schedule = [primary] * PRIMARY_SHARE + [phases[n] for n in PHASES if n != primary_name]
    schedule += [setup] * SETUP_SHARE
    deadline = time.perf_counter() + seconds
    while True:
        for phase in schedule:
            window(phase)
        if time.perf_counter() >= deadline and all(
                counts[p.name] >= p.min_windows for p in phases.values()):
            break

    metrics["bench.host_scale"] = PROBE_REF_S / host.times.median_raw()
    for phase in phases.values():
        metrics.update(phase.metrics())
    if tracer is not None:
        metrics.update(layer_metrics(bench, phases, workload))
        metrics["bench.src_lines"] = src_lines()
    return bench, phases, metrics


def layer_metrics(bench: Bench, phases: dict, workload: str) -> dict:
    """Per-layer figures from the spans.

    Forward-path layers (engine, mpu, reference) are read from the eval
    phase on batch_eval (batch 100) and from the loop otherwise (batch 1);
    compile-path layers from the sweep on compile_sweep and from setup
    otherwise.  Counts are per replay of the phase's inputs.
    """
    tr = bench.tracer
    tm = tracing
    loop = phases["loop"]
    _, calls, _, pulses = loop.totals()
    out: dict[str, float] = {}

    out["frontend.cic_decimate.ms"] = tm.median_ms(tr.select("frontend.cic_decimate", "loop"))
    out["frontend.run_closed_loop.self_ms"] = tm.median_self_ms(
        tr.select("frontend.run_closed_loop", "loop"))
    out["frontend.pulses"] = pulses
    out["pipeline.classify_segment.calls"] = calls
    classify = tr.select("pipeline.classify_segment", "loop")
    out["pipeline.classify_segment.self_ms"] = tm.median_self_ms(classify)
    out["pipeline.classify_segment.ms_p90"] = statistics.quantiles([s.ms for s in classify], n=10)[-1]
    out["pipeline.epoch_stage.self_ms"] = tm.median_self_ms(tr.select("pipeline.epoch_stage", "loop"))

    fwd_phase = "eval" if workload == "batch_eval" else "loop"
    model = bench.engine.model
    forwards = tr.select("engine.forward", fwd_phase)
    samples = sum(s.value for s in forwards)
    batch = forwards[0].value
    out["engine.forward.calls"] = phases["eval"].batches if fwd_phase == "eval" else calls
    out["engine.forward.ms_p50"] = tm.median_ms(forwards)
    out["engine.forward.self_ms"] = tm.median_self_ms(forwards)
    pe = tr.children(forwards, "mpu.pe_forward")
    rows = costmodel.predict_model_costs(model, batch=batch)
    for li, row in enumerate(rows):
        layer = [s for s in pe if s.order == li]
        out[f"mpu.L{li}.ms_per_sample"] = sum(s.ms for s in layer) / samples
        for field in ("cycles", "mux_selects", "memory_bits_read", "adder_ops"):
            out[f"mpu.L{li}.{field}"] = getattr(row, field) / batch
        live = tuple(sum(counts) for counts in zip(*(s.value for s in layer)))
        want = tuple(len(layer) * getattr(row, f) for f in ("cycles", "mux_selects", "memory_bits_read"))
        bench.gate.check(live == want, f"trace: layer {li} live counts {live} != costmodel {want}")
    mux_selects = sum(r.mux_selects for r in rows) * samples / batch
    out["mpu.ns_per_mux_select"] = 1e6 * sum(s.ms for s in pe) / mux_selects
    out["reference.ms_per_sample"] = tm.median_ms(tr.select("reference.reference_logits", fwd_phase))
    out["reference.engine_over_reference"] = (
        sum(s.ms for s in forwards) / samples / out["reference.ms_per_sample"])

    build_phase = "sweep" if workload == "compile_sweep" else "setup"
    compiles = tr.select("compiler.compile_model", build_phase)
    inits = tr.select("engine.init", build_phase)
    serialized = tr.select("compiler.serialize_model", build_phase)
    prescale = tr.select("quantizer.choose_prescale", build_phase)
    tables = tr.select("static_table.build", build_phase)
    out["compiler.compile_model.ms"] = tm.median_ms(compiles)
    out["compiler.serialize_model.ms"] = tm.median_ms(serialized)
    out["compiler.deserialize_model.ms"] = tm.median_ms(
        tr.select("compiler.deserialize_model", build_phase))
    out["compiler.artifact_bytes"] = statistics.median(s.value for s in serialized)
    out["quantizer.choose_prescale.calls"] = len(prescale) / len(compiles)
    out["quantizer.choose_prescale.ms"] = sum(s.ms for s in prescale) / len(compiles)
    out["engine.init.ms"] = tm.median_ms(inits)
    out["static_table.build.ms"] = sum(s.ms for s in tables) / len(inits)
    out["static_table.table_entries"] = sum(s.value for s in tables) / len(inits)

    out["costmodel.gating_saved_fraction"] = \
        costmodel.model_cost_report(model).gating.saved_fraction
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        bench, phases, metrics = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), sizes)
    except Exception:
        traceback.print_exc()
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    gate = bench.gate
    provenance = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "artifact_sha256": hashlib.sha256(bench.artifact).hexdigest(),
        "run_log_sha256": phases["loop"].totals()[0],
        "windows": {name: len(p.times.cpu) for name, p in phases.items()},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for msg in gate.messages:
        print(f"MISMATCH {msg}")
    print(f"{'mismatch_fraction':40s} {gate.failed / gate.checked:<14.6g} fraction  lower  "
          f"({gate.failed} of {gate.checked} checks)")
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]:<14.6g} {m['unit']:9s} {m['better']}")
    compared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(metrics) - compared):
        print(f"{name:40s} {metrics[name]:<14.6g} (reported, not compared)")
    if bench.tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        bench.tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.checked,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
