"""Paired timing of two muxnet source trees in one process.

    python3 tools/ab_forward.py BASE_ROOT CHANGE_ROOT [--rounds 200] [--seed 0]

Each root is a checkout holding ``src/muxnet`` (for example one unpacked
with ``git archive``).  Both packages are copied into a temporary directory
as ``muxnet_a`` (BASE_ROOT) and ``muxnet_b`` (CHANGE_ROOT) and imported side
by side; each compiles the default float model of ``--seed`` with its own
compiler.  It checks that both sides return the same logits at batch 1,
4 and 100 and the same class for one real-valued segment, that both
trees' ``synthetic_source`` draw the same samples and labels for the
benchmark's 3600 s signal of ``--seed``, and that
``run_closed_loop`` on one loop window (the first eighth of each tree's own
signal, triggering on class 4) writes byte-identical run logs.  Then it
times ``engine.forward`` at batch 1, 4 and 100, then
``pipeline.classify_segment`` of that segment (the batch-1 call whose
median the benchmark reports as ``decision_ms_p50``), then that loop
window, then ``MpuEngine(model)``, then ``compile_model`` of the
1280-input checkpoint of ``--seed``, then one sweep window (``--rounds``
rounds each, in thread CPU time), strictly alternating which side goes
first.  It prints each side's median and the median of the per-round
ratios b/a, then each side's median minor page faults per call
(``ru_minflt`` around each timed call: a forward whose transients the
allocator trims and faults back in on every call shows here, and its time
then depends on what the process freed before), then a memory row: each
side's tracemalloc peak for the 3600 s ``synthetic_source`` call, for the
loop window, for a batch-100 forward, and for ``compile_model`` and
``MpuEngine`` of the 1280-input checkpoint (each includes the call's
result; a traced peak repeats exactly, so one call each); and last, for
an engine of the default model and one of the 1280-input model, each
side's resident stage-1 row bytes (``StageRows.rows`` summed over the
layers), the bytes of the distinct ``mpu._word_keys`` tables one
batch-1 forward of that engine reads, and its model's line index bytes
(``CompiledLayer.line_indices`` summed over the layers).  A sweep window, as in
the benchmark's compile_sweep, takes the six checkpoints of ``--seed``
(input lengths 320, 640 and 1280 times conv m 10 and 6, model ``i``
seeded ``seed * 1000 + i``) from checkpoint to loaded engine:
compile, serialize, deserialize, ``MpuEngine``; both trees must write
byte-identical artifacts for them.

Timings of separate processes on a shared host can differ by far more than
a change moves them; a ratio taken within one round compares the two sides
under the same conditions.
"""

from __future__ import annotations

import argparse
import importlib
import io
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

BATCHES = (1, 4, 100)
SWEEP = [(length, conv_m) for length in (320, 640, 1280) for conv_m in (10, 6)]


def load(root: Path, name: str, into: Path):
    """Import the muxnet package under ``root/src`` as package ``name``."""
    package = root / "src" / "muxnet"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab_forward: no muxnet package under {root / 'src'}")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return [importlib.import_module(f"{name}.{module}")
            for module in ("compiler", "engine", "frontend", "mpu", "pipeline", "quantizer")]


def timed(fn, *args) -> tuple[float, int]:
    """Thread CPU ms and minor page faults of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.thread_time_ns()
    fn(*args)
    ms = (time.thread_time_ns() - start) / 1e6
    return ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def traced_peak_mb(fn, *args) -> float:
    """tracemalloc peak of one call, its result included, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def word_table_bytes(mpu, engine, u: np.ndarray) -> int:
    """Bytes of the distinct ``_word_keys`` tables that one forward of ``engine`` reads."""
    cached, seen = mpu._word_keys, {}

    def spy(*args):
        table = cached(*args)
        seen[id(table)] = table.nbytes
        return table

    mpu._word_keys = spy
    try:
        engine.forward(u)
    finally:
        mpu._word_keys = cached
    return sum(seen.values())


def sweep_window(compiler, engine_cls, cases) -> list[bytes]:
    """Checkpoint to loaded engine for every case; the artifacts."""
    blobs = []
    for checkpoint, cfg in cases:
        blobs.append(compiler.serialize_model(compiler.compile_model(checkpoint, cfg)))
        engine_cls(compiler.deserialize_model(blobs[-1]))
    return blobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides, frontends, pipelines, sweeps, compiles, inits, mpus = {}, {}, {}, {}, {}, {}, {}
        for name, root in (("a", args.base), ("b", args.change)):
            compiler, engine, frontends[name], mpus[name], pipelines[name], quantizer = load(
                root.resolve(), f"muxnet_{name}", Path(tmp))
            model = compiler.compile_model(compiler.default_float_model(seed=args.seed))
            sides[name] = (engine.MpuEngine, model)
            wide = compiler.default_float_model(seed=args.seed, input_len=1280)
            compiles[name] = (compiler.compile_model, wide)
            inits[name] = (engine.MpuEngine, compiler.compile_model(wide))
            cases = [(compiler.default_float_model(seed=args.seed * 1000 + i, input_len=length),
                      compiler.CompileConfig(conv_m=conv_m)) for i, (length, conv_m) in enumerate(SWEEP)]
            sweeps[name] = (sweep_window, compiler, engine.MpuEngine, cases)
        if sweep_window(*sweeps["a"][1:]) != sweep_window(*sweeps["b"][1:]):
            raise SystemExit("ab_forward: the two trees write different artifacts for the sweep window")

        model, first = sides["a"][1], sides["a"][1].layers[0]
        lo, hi = quantizer.activation_range(first.activation_bits, first.activation_signed)
        rng = np.random.default_rng(args.seed)
        inputs = {b: rng.integers(lo, hi + 1, size=(b, model.input_channels * model.input_len))
                  for b in BATCHES}
        engines = {name: cls(m) for name, (cls, m) in sides.items()}
        for b, u in inputs.items():
            if not np.array_equal(engines["a"].forward(u), engines["b"].forward(u)):
                raise SystemExit(f"ab_forward: the two trees disagree on the logits at batch {b}")
        resident = {}  # (row, word-table, line-index bytes) of each side's default and 1280-input engine
        for name in sides:
            for label, eng in (("default", engines[name]), ("1280", inits[name][0](inits[name][1]))):
                u = np.zeros(eng.model.input_channels * eng.model.input_len, dtype=np.int64)
                resident.setdefault(label, {})[name] = (sum(r.rows.nbytes for r in eng.rows),
                                                        word_table_bytes(mpus[name], eng, u),
                                                        sum(layer.line_indices.nbytes for layer in eng.model.layers))
        segment = rng.uniform(-1, 1, size=model.input_channels * model.input_len)
        classify = {name: (pipelines[name].classify_segment, engines[name], segment) for name in sides}
        if len({fn(*args) for fn, *args in classify.values()}) != 1:
            raise SystemExit("ab_forward: the two trees classify the segment differently")

        loop_cfgs = {name: f.LoopConfig(stim=(f.StimChannelConfig(trigger_classes=(4,)),))
                     for name, f in frontends.items()}
        sources = {name: (frontends[name].synthetic_source, args.seed, 3600, loop_cfgs[name],
                          model.class_count) for name in sides}
        signals = {name: source[0](*source[1:]) for name, source in sources.items()}
        if not (np.array_equal(signals["a"][0], signals["b"][0])
                and signals["a"][1] == signals["b"][1]):
            raise SystemExit("ab_forward: the two trees draw different synthetic signals")
        loops = {}
        for name, (samples, _) in signals.items():
            window = samples[:len(samples) // 8]  # one of the benchmark's eight loop windows
            loops[name] = (frontends[name].run_closed_loop, engines[name], window, loop_cfgs[name])
        logs = {name: io.StringIO() for name in sides}
        for name, (run, *loop_args) in loops.items():
            frontends[name].write_run_log(run(*loop_args), logs[name])
        if logs["a"].getvalue() != logs["b"].getvalue():
            raise SystemExit("ab_forward: the two trees write different run logs for the loop window")

        calls = {f"forward b={b}": {name: (engines[name].forward, u) for name in sides}
                 for b, u in inputs.items()}
        calls["classify b=1"] = classify
        calls["loop window"] = loops
        calls["init"] = {name: (cls, m) for name, (cls, m) in sides.items()}
        calls["compile 1280"] = compiles
        calls["sweep window"] = sweeps
        times, faults = {}, {}
        for label, call in calls.items():  # one call at a time, so an init does not evict a forward's rows
            for r in range(args.rounds):
                for name in ("ab" if r % 2 == 0 else "ba"):
                    ms, flt = timed(*call[name])
                    times.setdefault((name, label), []).append(ms)
                    faults.setdefault((name, label), []).append(flt)
        peaks = {label: {name: traced_peak_mb(*call[name]) for name in sides}
                 for label, call in (("source", sources), ("loop window", loops),
                                     ("forward b=100", calls["forward b=100"]),
                                     ("compile 1280", compiles), ("init 1280", inits))}

    print(f"{args.rounds} rounds, seed {args.seed}; thread CPU ms")
    print(f"{'':14}{'a median':>10}{'b median':>10}{'b/a paired':>12}")
    for label in calls:
        a, b = times["a", label], times["b", label]
        ratio = statistics.median(y / x for x, y in zip(a, b) if x > 0)
        print(f"{label:14}{statistics.median(a):10.3f}{statistics.median(b):10.3f}{ratio:12.3f}")
    print(f"minor page faults per call, median\n{'':14}{'a':>10}{'b':>10}")
    for label in calls:
        a, b = faults["a", label], faults["b", label]
        print(f"{label:14}{statistics.median(a):10.0f}{statistics.median(b):10.0f}")
    print(f"tracemalloc peak MB\n{'':14}{'a':>10}{'b':>10}{'b/a':>12}")
    for label, peak in peaks.items():
        print(f"{label:14}{peak['a']:10.2f}{peak['b']:10.2f}{peak['b'] / peak['a']:12.3f}")
    print(f"resident bytes\n{'':20}{'a':>10}{'b':>10}{'b/a':>12}")
    for label, side in resident.items():
        for i, what in enumerate(("rows", "word tables", "line indices")):
            a, b = side["a"][i], side["b"][i]
            print(f"{what + ' ' + label:20}{a:10}{b:10}{b / a if a else float('nan'):12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
