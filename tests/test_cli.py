"""Command-line surface: exit codes, artifacts on disk, report text."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest

import muxnet
from muxnet.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    load_config,
    main,
    make_loop_config,
)
from muxnet.compiler import load_model
from muxnet.frontend import LoopConfig, StimChannelConfig


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """checkpoint + compiled model shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ckpt = root / "model.muxf"
    compiled = root / "model.muxn"
    assert main(["init-model", "--out", str(ckpt), "--seed", "0"]) == EXIT_OK
    assert main(["compile", "--model", str(ckpt), "--out", str(compiled)]) == EXIT_OK
    return root, ckpt, compiled


def test_init_compile_report(tmp_path, capsys):
    ckpt = tmp_path / "m.muxf"
    out = tmp_path / "m.muxn"
    assert main(["init-model", "--out", str(ckpt)]) == EXIT_OK
    assert main(["compile", "--model", str(ckpt), "--out", str(out), "--report"]) == EXIT_OK
    text = capsys.readouterr().out
    lines = dict(line.split("=", 1) for line in text.splitlines()
                 if "=" in line and " " not in line)
    model = load_model(out)
    weight_bits = sum(l.out_channels * l.chunks * model.n * l.mode_m for l in model.layers)
    assert int(lines["weight_memory_bits"]) == weight_bits
    assert int(lines["lut_memory_bits"]) > weight_bits
    assert int(lines["table_entries"]) == 3 * (1 << 10) * 4


def test_verify_default_suite(artifacts, capsys):
    _, _, compiled = artifacts
    assert main(["verify", "--model", str(compiled), "--cases", "500"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok   exhaustive n=2 m=3 (2^6 * 4^2 cases): 1024 cases checked" in out
    assert "engine vs direct-MAC reference" in out
    assert "FAIL" not in out


def test_verify_fault_injection_exits_one(capsys):
    assert main(["verify", "--inject-fault"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "counterexample" in out


def test_verify_trace_written(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["verify", "--cases", "64", "--trace", str(trace)]) == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "cycle,group,bitplane,key,selected_entry,accumulator"
    assert len(lines) > 2
    # final accumulator is the inner product 3*17 + (-7)*(-9)
    assert lines[-1].split(",")[-1] == "114"


def test_loop_synthetic_is_deterministic(artifacts, capsys):
    root, _, compiled = artifacts
    a, b = root / "a.jsonl", root / "b.jsonl"
    args = ["loop", "--model", str(compiled), "--synthetic", "3", "--seconds", "90"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    rows = [json.loads(line) for line in a.read_text().splitlines()]
    assert sum(r["kind"] == "decision" for r in rows) == 3
    capsys.readouterr()


def test_loop_empty_trigger_classes(artifacts, capsys):
    root, _, compiled = artifacts
    out = root / "quiet.jsonl"
    rc = main(["loop", "--model", str(compiled), "--synthetic", "1",
               "--seconds", "30", "--trigger-classes", "", "--out", str(out)])
    assert rc == EXIT_OK
    assert "0 pulses" in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["kind"] == "decision" for r in rows)


def test_loop_from_signal_file(artifacts, capsys):
    root, _, compiled = artifacts
    sig = root / "sig.muxs"
    out = root / "sig.jsonl"
    assert main(["make-signal", "--out", str(sig), "--seed", "4",
                 "--seconds", "60"]) == EXIT_OK
    assert main(["loop", "--model", str(compiled), "--signal", str(sig),
                 "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(r["kind"] == "decision" for r in rows) == 2
    capsys.readouterr()


def test_loop_without_source_is_config_error(artifacts, capsys):
    root, _, compiled = artifacts
    rc = main(["loop", "--model", str(compiled), "--out", str(root / "x.jsonl")])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_cost_model_csv(artifacts, capsys):
    root, _, compiled = artifacts
    out = root / "cost.csv"
    assert main(["cost", "--model", str(compiled), "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "gating:" in text and "cycles=" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("layer,kind,")
    assert lines[-1].startswith("total,")
    assert len(lines) == 1 + 4 + 1


def test_cost_sweep_csv(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"n": [2], "m": [4, 5, 10]}))
    out = tmp_path / "sweep.csv"
    assert main(["cost", "--sweep", str(sweep), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    m5 = lines[2].split(",")
    assert m5[1] == "5" and m5[4] == ""  # odd m: no even split
    m10 = lines[3].split(",")
    assert float(m10[4]) == 512.0
    capsys.readouterr()


def test_cost_without_input_is_config_error(tmp_path, capsys):
    assert main(["cost", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    capsys.readouterr()


def test_eval_dataset(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    rng = np.random.default_rng(6)
    data = tmp_path / "data.npz"
    np.savez(data, segments=rng.normal(scale=0.2, size=(3, 6, 320)),
             labels=rng.integers(0, 5, size=3))
    out = tmp_path / "eval.csv"
    assert main(["eval", "--model", str(compiled), "--data", str(data),
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "accuracy=" in text and "savings_fraction=" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,stage,classifications_used,v0,v1,v2,v3,v4,v5"
    assert len(lines) == 4


def test_eval_requires_segments_key(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    data = tmp_path / "bad.npz"
    np.savez(data, foo=np.zeros(3))
    rc = main(["eval", "--model", str(compiled), "--data", str(data),
               "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


def test_corrupt_model_is_input_error(artifacts, tmp_path, capsys):
    bad = tmp_path / "bad.muxn"
    bad.write_bytes(b"MUXN" + b"\x00" * 10)
    assert main(["verify", "--model", str(bad), "--cases", "16"]) == EXIT_INPUT
    assert main(["loop", "--model", str(bad), "--synthetic", "0",
                 "--out", str(tmp_path / "x.jsonl")]) == EXIT_INPUT
    # bad conv geometry in layer 0 must be refused at load, not fail later
    # as a numpy error: stride byte set to 0, kernel 7 -> 3 (fan-in stays 7);
    # mode_m 10 -> 40 makes an 80-bit line index, wider than an int64
    _, _, compiled = artifacts
    good = compiled.read_bytes()
    mode_at, stride_at, kernel_at = 26 + 1, 26 + 5, 26 + 6  # 26-byte model header, then layer 0
    assert good[mode_at] == 10 and good[stride_at] == 2 and good[kernel_at] == 7
    for at, byte in ((stride_at, 0), (kernel_at, 3), (mode_at, 40)):
        bad.write_bytes(good[:at] + bytes([byte]) + good[at + 1:])
        assert main(["verify", "--model", str(bad), "--cases", "16"]) == EXIT_INPUT
    capsys.readouterr()


def test_unreadable_dataset_is_input_error(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    good = tmp_path / "good.npz"
    np.savez(good, segments=np.zeros((1, 6, 320)))
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not a dataset at all" * 10)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(good.read_bytes()[:200])
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    for data in (garbage, truncated, empty):
        rc = main(["eval", "--model", str(compiled), "--data", str(data),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT
        assert "unreadable dataset" in capsys.readouterr().err


def test_dataset_without_votes_axis_is_input_error(artifacts, tmp_path, capsys):
    # a 2-D array is refused by evaluate_dataset; lower ranks must be too
    _, _, compiled = artifacts
    data = tmp_path / "flat.npz"
    for segments in (np.zeros(()), np.zeros(320), np.zeros((6, 320))):
        np.savez(data, segments=segments)
        rc = main(["eval", "--model", str(compiled), "--data", str(data),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT, segments.shape
        assert "SegmentLengthError" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["compile", "--model", str(tmp_path / "nope.muxf"),
               "--out", str(tmp_path / "x.muxn")])
    assert rc == EXIT_INPUT
    capsys.readouterr()


def test_bad_config_is_config_error(artifacts, tmp_path, capsys):
    _, ckpt, compiled = artifacts
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc = main(["compile", "--model", str(ckpt), "--out",
               str(tmp_path / "x.muxn"), "--config", str(broken)])
    assert rc == EXIT_CONFIG
    bad_values = tmp_path / "bad.json"
    bad_values.write_text(json.dumps({"loop": {"cic": {"decimation": 1}}}))
    rc = main(["loop", "--model", str(ckpt), "--synthetic", "0",
               "--out", str(tmp_path / "y.jsonl"), "--config", str(bad_values)])
    assert rc == EXIT_CONFIG
    capsys.readouterr()
    # a compile config whose artifact could not be loaded back writes nothing
    for section in ({"conv_m": 11}, {"n": 0}, {"linear_m": 1}, {"conv_m": 32},
                    {"activation_bits": 1}, {"activation_bits": 17},
                    {"n": 7, "conv_m": 9, "table_budget_bits": 63},
                    {"n": 10, "conv_m": 2, "linear_m": 2}):
        bad_values.write_text(json.dumps({"compile": section}))
        out = tmp_path / "refused.muxn"
        rc = main(["compile", "--model", str(ckpt), "--out", str(out),
                   "--config", str(bad_values)])
        assert rc == EXIT_CONFIG and not out.exists()
        assert "config error" in capsys.readouterr().err
    # a key (or value type) the defaults do not have, in every section, is
    # refused by a command that reads that section, naming the key
    out = str(tmp_path / "out")
    data = tmp_path / "data.npz"
    np.savez(data, segments=np.zeros((1, 6, 320)))
    commands = {
        "compile": ["compile", "--model", str(ckpt), "--out", out],
        "loop": ["loop", "--model", str(compiled), "--synthetic", "0", "--out", out],
        "engine": ["verify", "--model", str(compiled), "--cases", "16"],
        "cost": ["cost", "--model", str(compiled), "--out", out],
        "voting": ["eval", "--model", str(compiled), "--data", str(data), "--out", out],
    }
    for config, key in (
        ({"compile": {"conv_mm": 8}}, "compile.conv_mm"),
        ({"loop": {"segment_sample": 640}}, "loop.segment_sample"),
        ({"loop": {"cic": {"stage": 3}}}, "loop.cic.stage"),
        ({"loop": {"stim": [{"chanel": 1}]}}, "loop.stim[0].chanel"),
        ({"engine": {"group": 4}}, "engine.group"),
        ({"cost": {"block": 4}}, "cost.block"),
        ({"voting": {"threshold": [1, 1, 1, 1, 1]}}, "voting.threshold"),
        ({"compile": {"n": "2"}}, "compile.n"),
        ({"compile": {"n": True}}, "compile.n"),
        # list elements, and keys whose default is null
        ({"loop": {"stim": [{"trigger_classes": ["a"]}]}}, "loop.stim[0].trigger_classes[0]"),
        ({"voting": {"thresholds": 3}}, "voting.thresholds"),
        ({"voting": {"thresholds": [1, 1, "x", 1, 1]}}, "voting.thresholds[2]"),
        ({"cost": {"capacity_bits": "x"}}, "cost.capacity_bits"),
    ):
        bad_values.write_text(json.dumps(config))
        command = commands[next(iter(config))]
        assert main(command + ["--config", str(bad_values)]) == EXIT_CONFIG, key
        assert key in capsys.readouterr().err
    # a stim entry may leave out fields; they take their defaults
    bad_values.write_text(json.dumps({"loop": {"stim": [{"channel": 1}]}}))
    assert make_loop_config(load_config(str(bad_values))) == \
        LoopConfig(stim=(StimChannelConfig(channel=1),))


def test_dump_config_is_valid_json(capsys):
    assert main(["dump-config"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == DEFAULT_CONFIG


def test_dump_table_golden(tmp_path, capsys):
    out = tmp_path / "table.txt"
    assert main(["dump-table", "--n", "2", "--m", "2", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "0 : 0 0 0 0"
    assert lines[1] == "1 : 0 1 0 1"
    capsys.readouterr()


def test_console_script_installed():
    """The declared `muxnet` command runs `main` and dumps the default config.

    Checked from the `[project.scripts]` declaration in pyproject.toml (not
    from installed metadata), by running its target in a fresh interpreter the
    way a console-script wrapper does; where an installed `muxnet` script is
    on PATH, that script must behave the same.
    """
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts.get("muxnet") == "muxnet.cli:main"
    module, func = scripts["muxnet"].split(":")
    # the wrapper pip writes: `sys.exit(main())`, argv taken from sys.argv
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    # the subprocess must import the muxnet this test imported
    pythonpath = [str(Path(muxnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    runs = [([sys.executable, "-c", wrapper], env)]
    exe = shutil.which("muxnet")
    if exe is not None:
        runs.append(([exe], None))
    for command, run_env in runs:
        proc = subprocess.run(command + ["dump-config"], capture_output=True,
                              text=True, env=run_env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == DEFAULT_CONFIG
