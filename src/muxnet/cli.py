"""Command-line workflows: compile, verify, loop, cost, eval, utilities.

Exit codes: 0 success, 1 verification failure, 2 input/artifact error,
3 configuration error, 141 a closed output pipe (the reader left, as
``| head`` does; nothing is printed).  Every command is deterministic given
its arguments and seed.

Exit 3 is a LoopConfigError, raised for the ``--config`` file and its
sections, ``--sweep``, ``--cases``, ``--trigger-classes``, the other option
values a command refuses, a signal the config does not describe and a
dataset without ``segments`` (the full list is in docs/format.md).
``configured`` turns the ValueError of a refused setting into one; a
ValueError raised anywhere else is no config error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import zipfile
from dataclasses import asdict

import numpy as np

from .compiler import (
    CompileConfig,
    CompiledModel,
    compile_model,
    default_float_model,
    load_float_model,
    load_model,
    save_float_model,
    save_model,
)
from .costmodel import CostReport, decomposition_cost, memory_cost, model_cost_report, write_cost_csv
from .engine import MpuEngine
from .errors import BadArtifact, LoopConfigError, MuxnetError, SegmentLengthError
from .frontend import (
    CicConfig,
    LoopConfig,
    StimChannelConfig,
    cic_decimate,
    read_signal,
    run_closed_loop,
    synthetic_source,
    write_run_log,
    write_signal,
)
from .mpu import MpuConfig, batch_inner_product, bitserial_inner_product
from .pipeline import VotingConfig, evaluate_dataset, write_report_csv
from .quantizer import QParams, QuantizedWeightVector
from .reference import (
    cic_dc_gain,
    cic_reference,
    decode_line_indices,
    reference_inner_product,
    reference_logits,
)
from .static_table import StaticTable, build_static_table, decompose_table, dump_table

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, the shell's status for a writer whose reader left

# Library dataclasses supply their own defaults; engine, voting and cost are
# keyword arguments of MpuEngine, VotingConfig and model_cost_report.
DEFAULT_CONFIG: dict = json.loads(json.dumps({
    "engine": {"groups": 8, "group_vector_len": 8},
    "compile": asdict(CompileConfig()),
    "loop": asdict(LoopConfig()),
    "voting": {"thresholds": None},
    "cost": {"blocks": 6, "capacity_bits": None, "batch": 1},
}))


# keys whose default is null (unset): set, each takes this example's type
_NULLABLE = {"voting.thresholds": [0], "cost.capacity_bits": 0}


def _merge(default, value, path: str = ""):
    """`value` checked against, and merged over, its default.

    A value must have its default's JSON type (any number where the default
    is a float, but no boolean for a number; that of its `_NULLABLE` example,
    or null, where it is null), and each list element that of the default
    list's first element.  An object may only hold keys its default has, at
    any depth, so an entry of a list of objects (``loop.stim``) is merged
    over the default entry and may leave out fields.
    """
    if default is None:
        return value if value is None else _merge(_NULLABLE[path], value, path)
    if (not isinstance(value, (int, float) if isinstance(default, float) else type(default))
            or isinstance(value, bool) != isinstance(default, bool)):
        raise LoopConfigError(
            f"config {path or 'file'} must be {type(default).__name__}, got {type(value).__name__}")
    if isinstance(default, list) and default:
        return [_merge(default[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(default, dict):
        return value
    out = dict(default)
    for key, v in value.items():
        where = f"{path}.{key}" if path else key
        if key not in default:
            raise LoopConfigError(f"unknown config key {where!r}")
        out[key] = _merge(default[key], v, where)
    return out


def configured(build):
    """``build``, which makes an object from settings (a config or sweep file's
    text, a ``--config`` section, a command's options): the ValueError by which
    it refuses a setting is a config error, LoopConfigError (exit 3), with the
    same message.  Every such refusal passes through here; a ValueError from
    anywhere else is no config error."""
    @functools.wraps(build)
    def built(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise LoopConfigError(str(exc)) from exc
    return built


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return cfg
    with open(path) as fh:
        return _merge(cfg, configured(json.load)(fh))  # text that is not JSON is a config error


# Each --config section is built through its dataclass here, and only here.

@configured
def compile_config(cfg: dict) -> CompileConfig:
    return CompileConfig(**cfg["compile"])


@configured
def make_loop_config(cfg: dict, trigger_classes: str | None = None) -> LoopConfig:
    """The loop section; ``trigger_classes``, the ``--trigger-classes`` text
    (comma-separated class ids, empty for none), replaces every channel's."""
    override = None
    if trigger_classes is not None:
        text = trigger_classes.strip()
        override = [int(part) for part in text.split(",")] if text else []
    loop = dict(cfg["loop"])
    stim = []
    for s in loop.pop("stim"):
        classes = s["trigger_classes"] if override is None else override
        stim.append(StimChannelConfig(**{**s, "trigger_classes": tuple(classes)}))
    return LoopConfig(cic=CicConfig(**loop.pop("cic")), stim=tuple(stim), **loop)


@configured
def engine_config(cfg: dict, n: int) -> MpuConfig:
    """The engine section at the model's ``n``: MpuEngine takes its groups and
    group_vector_len, which MpuConfig checks here for every command."""
    return MpuConfig(n=n, **cfg["engine"])


@configured
def voting_config(cfg: dict, class_count: int, votes_per_epoch: int) -> VotingConfig:
    thresholds = cfg["voting"]["thresholds"]
    return VotingConfig(class_count, votes_per_epoch,
                        None if thresholds is None else tuple(thresholds))


@configured
def cost_report(cfg: dict, model: CompiledModel) -> CostReport:
    """The cost section: ``model``'s report on the engine section's shape."""
    mpu = engine_config(cfg, model.n)
    return model_cost_report(model, mpu.groups, mpu.group_vector_len, **cfg["cost"])


# ---------------------------------------------------------------------------
# verification suite (also reachable as a library for tests)


def verify_exhaustive_small(table: StaticTable) -> tuple[int, str | None]:
    """Exhaustive n=2, m=3, 2-bit unsigned on ``table``: every line, every activation pair."""
    cfg = MpuConfig(n=2, m=3, groups=1, group_vector_len=2,
                    activation_bits=2, activation_signed=False)
    checked = 0
    for line, codes in enumerate(decode_line_indices(np.arange(1 << 6)[:, None], 2, 3).tolist()):
        qwv = QuantizedWeightVector(codes=tuple(codes), qparams=QParams(m=3, scale=1.0))
        for x0 in range(4):
            for x1 in range(4):
                got = bitserial_inner_product([qwv], [x0, x1], cfg, table)
                want = reference_inner_product(codes, (x0, x1))
                checked += 1
                if got != want:
                    return checked, f"line {line} acts ({x0},{x1}): mux {got}, mac {want}"
    return checked, None


def verify_random_mode(seed: int, m: int, cases: int) -> tuple[int, str | None]:
    """Random signed 8-bit equivalence at n=2 for one mode width."""
    n = 2
    cfg = MpuConfig(n=n, m=m, groups=8, group_vector_len=8,
                    activation_bits=8, activation_signed=True)
    tables = decompose_table(n, m) if CompileConfig(n=n).decomposed(m) else build_static_table(n, m)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 1 << (n * m), size=(cases, cfg.chunks_per_group))
    acts = rng.integers(-128, 128, size=(cases, cfg.group_vector_len))
    codes = decode_line_indices(idx, n, m)
    got = batch_inner_product(idx, acts, cfg, tables)
    want = (codes * acts).sum(axis=1)
    bad = np.nonzero(got != want)[0]
    if bad.size:
        i = int(bad[0])
        return cases, (f"case {i}: codes {codes[i].tolist()} acts {acts[i].tolist()}: "
                       f"mux {int(got[i])}, mac {int(want[i])}")
    return cases, None


def verify_decomposition(seed: int, cases: int) -> tuple[int, str | None]:
    """Decomposed tables equal monolithic ones: exhaustive m=6, sampled m=10."""
    checked = 0
    for m, line_count in ((6, None), (10, cases)):
        mono = build_static_table(2, m)
        if line_count is None:
            lines = np.arange(mono.line_count, dtype=np.int64)
        else:
            lines = np.random.default_rng(seed).integers(0, mono.line_count, size=line_count)
        got, want = decompose_table(2, m).select(lines), mono.lines[lines]
        checked += got.size
        bad = np.argwhere(got != want)
        if bad.size:
            i, key = bad[0].tolist()
            return checked, (f"m={m} line {int(lines[i])} key {key}: "
                             f"decomposed {int(got[i, key])}, monolithic {int(want[i, key])}")
    return checked, None


def verify_cic(seed: int, samples: int) -> tuple[int, str | None]:
    rng = np.random.default_rng(seed)
    checked = 0
    for stages, decim, delay in ((1, 4, 1), (2, 2, 1), (3, 8, 2)):
        cfg = CicConfig(stages=stages, decimation=decim, diff_delay=delay, input_bits=12)
        x = rng.integers(-2048, 2048, size=samples)
        got = cic_decimate(x, cfg)
        want = cic_reference(x, stages, decim, delay)
        checked += samples
        if got.shape != want.shape or np.any(got != want):
            i = int(np.nonzero(got != want)[0][0]) if got.shape == want.shape else -1
            return checked, f"CIC N={stages} R={decim} M={delay} sample {i}: {got[i]} vs {want[i]}"
        const = np.ones(decim * delay * stages * 4, dtype=np.int64)
        steady = cic_decimate(const, cfg)[-1]
        if int(steady) != cic_dc_gain(stages, decim, delay):
            return checked, f"CIC DC gain N={stages} R={decim} M={delay}: {steady}"
    return checked, None


def verify_model(model: CompiledModel, cfg: dict, seed: int, segments: int) -> tuple[int, str | None]:
    mpu = engine_config(cfg, model.n)
    engine = MpuEngine(model, mpu.groups, mpu.group_vector_len)
    rng = np.random.default_rng(seed)
    u = rng.integers(0, 1 << model.layers[0].activation_bits,
                     size=(segments, model.input_channels * model.input_len))
    got, want = engine.forward(u), reference_logits(model, u)
    bad = np.nonzero(np.any(got != want, axis=1))[0]
    if bad.size:
        i = int(bad[0])
        return segments, f"segment {i}: engine {got[i].tolist()}, reference {want[i].tolist()}"
    return segments, None


def _perturbed_table(m: int = 5) -> StaticTable:
    """The signed (2, m) table with entry 1 of line 1 made one too large."""
    table = build_static_table(2, m)
    lines = table.lines.copy()
    lines[1, 1] += 1
    return StaticTable(n=2, m=m, signed=True, lines=lines)


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise LoopConfigError(f"--cases must be at least 1, got {args.cases}")
    cfg = load_config(args.config)
    configured(np.random.SeedSequence)(args.seed)  # the suite's seed, refused before it runs
    checks: list[tuple[str, int, str | None]] = []

    table = _perturbed_table(3) if args.inject_fault else build_static_table(2, 3)
    checked, bad = verify_exhaustive_small(table)
    checks.append(("exhaustive n=2 m=3 (2^6 * 4^2 cases)", checked, bad))
    for m in (5, 10):
        checked, bad = verify_random_mode(args.seed, m, args.cases)
        checks.append((f"random n=2 m={m} signed 8-bit", checked, bad))
    checked, bad = verify_decomposition(args.seed, max(args.cases // 4, 256))
    checks.append(("table decomposition vs monolithic", checked, bad))
    checked, bad = verify_cic(args.seed, min(args.cases, 4000))
    checks.append(("CIC vs moving-average reference", checked, bad))
    if args.model:
        model = load_model(args.model)
        checked, bad = verify_model(model, cfg, args.seed, segments=10)
        checks.append(("engine vs direct-MAC reference", checked, bad))

    if args.trace:
        table = build_static_table(2, 5)
        qwv = QuantizedWeightVector(codes=(3, -7), qparams=QParams(m=5, scale=1.0))
        mcfg = MpuConfig(n=2, m=5, groups=1, group_vector_len=2,
                         activation_bits=8, activation_signed=True)
        with open(args.trace, "w") as fh:
            fh.write("cycle,group,bitplane,key,selected_entry,accumulator\n")
            bitserial_inner_product([qwv], [17, -9], mcfg, table, trace=fh)
        print(f"trace written to {args.trace}")

    failed = False
    for name, count, bad in checks:
        if bad is None:
            print(f"ok   {name}: {count} cases checked")
        else:
            failed = True
            print(f"FAIL {name} after {count} cases")
            print(f"  counterexample: {bad}")
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# remaining commands


def cmd_init_model(args) -> int:
    model = configured(default_float_model)(seed=args.seed, input_len=args.input_len,
                                            class_count=args.classes)
    save_float_model(model, args.out)
    print(f"wrote {args.out}: {len(model.layers)} layers, "
          f"input {model.input_len}, classes {model.class_count}")
    return EXIT_OK


def cmd_compile(args) -> int:
    cfg = load_config(args.config)
    compile_cfg = compile_config(cfg)
    mpu = engine_config(cfg, compile_cfg.n) if args.report else None  # refused before any output
    compiled = compile_model(load_float_model(args.model), compile_cfg)
    save_model(compiled, args.out)
    print(f"wrote {args.out}: {len(compiled.layers)} layers, n={compiled.n}, "
          f"classes={compiled.class_count}")
    if mpu is not None:
        report = model_cost_report(compiled, mpu.groups, mpu.group_vector_len)
        print(f"weight_memory_bits={report.weight_memory_bits}")
        print(f"lut_memory_bits={report.lut_memory_bits}")
        print(f"table_entries={report.table_entries}")
    return EXIT_OK


def cmd_loop(args) -> int:
    cfg = load_config(args.config)
    loop_cfg = make_loop_config(cfg, args.trigger_classes)
    model = load_model(args.model)
    mpu = engine_config(cfg, model.n)
    engine = MpuEngine(model, mpu.groups, mpu.group_vector_len)
    voting = voting_config(cfg, model.class_count, loop_cfg.votes_per_epoch)
    if args.synthetic is not None:
        samples, _labels = configured(synthetic_source)(args.synthetic, args.seconds, loop_cfg,
                                                        class_count=model.class_count)
    elif args.signal:
        samples, rate, bits, channels = read_signal(args.signal)
        if channels != 1:
            raise LoopConfigError(f"loop expects 1 channel, signal has {channels}")
        if rate != loop_cfg.input_rate_hz or bits != loop_cfg.cic.input_bits:
            raise LoopConfigError(
                f"signal is {rate} Hz / {bits} bits, config wants "
                f"{loop_cfg.input_rate_hz} Hz / {loop_cfg.cic.input_bits} bits"
            )
    else:
        raise LoopConfigError("cmd loop needs --signal or --synthetic")
    log = run_closed_loop(engine, samples, loop_cfg, voting)
    with open(args.out, "w") as fh:
        write_run_log(log, fh)
    print(f"wrote {args.out}: {len(log.decisions)} decisions, {len(log.pulses)} pulses")
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = load_config(args.config)
    if args.model:
        report = cost_report(cfg, load_model(args.model))
        with open(args.out, "w", newline="") as fh:
            write_cost_csv(report, fh)
        print(f"wrote {args.out}")
        print(f"cycles={report.cycles} mux_selects={report.mux_selects} "
              f"memory_bits_read={report.memory_bits_read}")
        print(f"gating: blocks={report.gating.blocks} "
              f"saved_fraction={report.gating.saved_fraction:.4f}")
        return EXIT_OK
    if args.sweep:
        with open(args.sweep) as fh:
            raw = configured(json.load)(fh)
        sweep = _merge({"n": [0], "m": [0]}, raw, "sweep")  # lists of ints, and no other key
        if missing := sorted({"n", "m"} - raw.keys()):
            raise LoopConfigError(f"sweep file needs key {missing[0]!r}")
        rows = [["n", "m", "muxnet_bits", "lut_bits", "decomposition_ratio"]]
        for n in sweep["n"]:
            for m in sweep["m"]:
                mux_bits, lut_bits = configured(memory_cost)(n, m)
                try:
                    ratio = decomposition_cost(n, m).ratio
                except (ValueError, MuxnetError):  # a split check_mode refuses
                    ratio = ""
                rows.append([n, m, mux_bits, lut_bits, ratio])
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}: {len(rows) - 1} rows")
        return EXIT_OK
    raise LoopConfigError("cmd cost needs --model or --sweep")


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    model = load_model(args.model)
    try:
        with open(args.data, "rb") as fh:
            data = np.load(fh)
            segments = data["segments"] if "segments" in data else None
            labels = data["labels"] if "labels" in data else None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise BadArtifact(f"unreadable dataset {args.data}: {exc}") from exc
    if segments is None:
        raise LoopConfigError("dataset must carry a 'segments' array")
    if segments.ndim < 2 or 0 in segments.shape[:2]:  # no votes axis, or nothing to vote on
        raise SegmentLengthError(
            f"dataset must be (epochs, votes, samples) with epochs, votes >= 1, got {segments.shape}")
    if segments.dtype.kind not in "biuf" or not np.isfinite(segments).all():
        raise BadArtifact(f"dataset {args.data}: segments must be finite numbers")
    if labels is not None and not np.isin(labels, np.arange(model.class_count)).all():
        raise BadArtifact(
            f"dataset {args.data}: labels must be whole numbers in [0, {model.class_count})")
    mpu = engine_config(cfg, model.n)
    voting = voting_config(cfg, model.class_count, segments.shape[1])
    engine = MpuEngine(model, mpu.groups, mpu.group_vector_len)  # after every check: a refusal builds no rows
    report = evaluate_dataset(engine, segments, labels, voting)
    with open(args.out, "w", newline="") as fh:
        write_report_csv(report, fh)
    print(f"wrote {args.out}: {report.epochs} epochs")
    print(f"mean_classifications={report.mean_classifications:.3f} "
          f"savings_fraction={report.savings_fraction:.4f}")
    if report.accuracy is not None:
        print(f"accuracy={report.accuracy:.4f}")
    return EXIT_OK


def cmd_dump_config(args) -> int:
    print(json.dumps(load_config(args.config), indent=2))
    return EXIT_OK


def cmd_dump_table(args) -> int:
    table = configured(build_static_table)(args.n, args.m, signed=not args.unsigned)
    if args.out:
        with open(args.out, "w") as fh:
            dump_table(table, fh)
        print(f"wrote {args.out}: {table.line_count} lines")
    else:
        dump_table(table, sys.stdout)
    return EXIT_OK


def cmd_make_signal(args) -> int:
    """Generate a synthetic raw-signal file (testing aid)."""
    cfg = load_config(args.config)
    loop_cfg = make_loop_config(cfg)
    samples, _labels = configured(synthetic_source)(args.seed, args.seconds, loop_cfg)
    # a CIC input width no signal file holds is refused before the file is made
    configured(write_signal)(args.out, samples, loop_cfg.input_rate_hz, loop_cfg.cic.input_bits)
    print(f"wrote {args.out}: {samples.size} samples at {loop_cfg.input_rate_hz} Hz")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muxnet",
        description="Multiplier-free table-resident NN datapath: compiler, "
                    "bit-exact engine, closed-loop frontend, cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="write the default float checkpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input-len", type=int, default=320)
    p.add_argument("--classes", type=int, default=5)
    p.set_defaults(fn=cmd_init_model)

    p = sub.add_parser("compile", help="compile a float checkpoint to a .muxn artifact")
    p.add_argument("--model", required=True, help="input .muxf checkpoint")
    p.add_argument("--out", required=True, help="output .muxn artifact")
    p.add_argument("--config")
    p.add_argument("--report", action="store_true", help="print memory accounting")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("verify", help="run bit-exactness suites against references")
    p.add_argument("--model", help="optional .muxn artifact for end-to-end check")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=2000)
    p.add_argument("--trace", help="write a bit-serial trace of one case to this path")
    p.add_argument("--inject-fault", action="store_true",
                   help="run the suite with one entry of the exhaustive check's table "
                        "corrupted; must fail with a counterexample")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("loop", help="run the closed loop over a signal")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="JSON-lines run log")
    p.add_argument("--signal", help="raw signal file")
    p.add_argument("--synthetic", type=int, help="generate a synthetic source with this seed")
    p.add_argument("--seconds", type=float, default=90.0,
                   help="synthetic source duration")
    p.add_argument("--trigger-classes",
                   help="comma-separated class ids; empty string disables triggers")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_loop)

    p = sub.add_parser("cost", help="cost CSV for a model or a parameter sweep")
    p.add_argument("--model")
    p.add_argument("--sweep", help="JSON file with n/m lists")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_cost)

    p = sub.add_parser("eval", help="score a labeled dataset (.npz) with early-stop voting")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help=".npz with segments (and labels)")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("dump-config", help="print the effective configuration")
    p.add_argument("--config")
    p.set_defaults(fn=cmd_dump_config)

    p = sub.add_parser("dump-table", help="text dump of one static table")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--unsigned", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dump_table)

    p = sub.add_parser("make-signal", help="write a synthetic raw-signal file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=90.0)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_make_signal)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone shows here, not in the interpreter's exit flush
        return code
    except LoopConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:  # as `| head` leaves it: exit as a SIGPIPE kill would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what stdout still holds
        return EXIT_PIPE
    except (MuxnetError, OSError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
