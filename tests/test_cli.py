"""Command-line surface: exit codes, artifacts on disk, report text."""

import io
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
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
    EXIT_PIPE,
    EXIT_VERIFY,
    load_config,
    main,
    make_loop_config,
    verify_model,
)
from muxnet.compiler import (
    CompileConfig,
    compile_model,
    default_float_model,
    load_model,
    save_float_model,
    save_model,
)
from muxnet.engine import MpuEngine
from muxnet.frontend import LoopConfig, StimChannelConfig, write_signal
from muxnet.reference import decode_line_indices
from muxnet.static_table import build_static_table, dump_table


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


def test_verify_model_names_the_first_mismatching_segment(monkeypatch):
    # one batched reference call; the counterexample is still the first bad row
    model = compile_model(default_float_model(seed=0))
    real = muxnet.cli.reference_logits

    def off_by_one(model, u):
        want = real(model, u)
        want[[4, 7], 1] += 1
        return want

    monkeypatch.setattr(muxnet.cli, "reference_logits", off_by_one)
    checked, bad = verify_model(model, load_config(None), seed=3, segments=10)
    assert checked == 10
    head, _, tail = bad.partition(", reference ")
    assert head.startswith("segment 4: engine ")
    got, want = json.loads(head[len("segment 4: engine "):]), json.loads(tail)
    assert want[1] == got[1] + 1 and want[:1] + want[2:] == got[:1] + got[2:]


def test_verify_fault_injection_exits_one(capsys):
    # the suite itself, not a side check, must catch the corrupted entry
    assert main(["verify", "--inject-fault"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    at = out.index("FAIL exhaustive n=2 m=3 (2^6 * 4^2 cases) after 21 cases")
    assert out[at + 1] == "  counterexample: line 1 acts (1,0): mux 2, mac 1"
    assert sum(line.startswith("ok   ") for line in out) == 4


def test_verify_reports_a_random_mode_counterexample(monkeypatch, capsys):
    real, seen = muxnet.cli.batch_inner_product, {}

    def off_by_one(idx, acts, cfg, tables):
        got = real(idx, acts, cfg, tables)
        seen[cfg.m] = (decode_line_indices(idx, cfg.n, cfg.m)[3], acts[3])
        got[3] += 1
        return got

    monkeypatch.setattr(muxnet.cli, "batch_inner_product", off_by_one)
    assert main(["verify", "--cases", "16"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    for m, (codes, acts) in seen.items():
        mac = int(codes @ acts)
        at = out.index(f"FAIL random n=2 m={m} signed 8-bit after 16 cases")
        assert out[at + 1] == (f"  counterexample: case 3: codes {codes.tolist()} "
                               f"acts {acts.tolist()}: mux {mac + 1}, mac {mac}")
    assert sorted(seen) == [5, 10]
    assert sum(line.startswith("ok   ") for line in out) == 3


def test_verify_reports_a_decomposition_counterexample(monkeypatch, capsys):
    real, bad = muxnet.cli.build_static_table, muxnet.cli._perturbed_table(6)
    monkeypatch.setattr(muxnet.cli, "build_static_table",
                        lambda n, m, **kw: bad if m == 6 else real(n, m, **kw))
    assert main(["verify", "--cases", "16"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    entry = int(real(2, 6).lines[1, 1])
    at = out.index("FAIL table decomposition vs monolithic after 16384 cases")
    assert out[at + 1] == f"  counterexample: m=6 line 1 key 1: decomposed {entry}, monolithic {entry + 1}"
    assert sum(line.startswith("ok   ") for line in out) == 4


def test_verify_reports_a_cic_sample_counterexample(monkeypatch, capsys):
    real, seen = muxnet.cli.cic_reference, []

    def off_by_one(x, *geometry):
        want = real(x, *geometry).copy()
        seen.append(int(want[2]))
        want[2] += 1
        return want

    monkeypatch.setattr(muxnet.cli, "cic_reference", off_by_one)
    assert main(["verify", "--cases", "16"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    at = out.index("FAIL CIC vs moving-average reference after 16 cases")
    assert out[at + 1] == f"  counterexample: CIC N=1 R=4 M=1 sample 2: {seen[0]} vs {seen[0] + 1}"
    assert len(seen) == 1  # the first geometry fails, the rest are not run


def test_verify_reports_a_cic_dc_gain_counterexample(monkeypatch, capsys):
    real = muxnet.cli.cic_dc_gain
    monkeypatch.setattr(muxnet.cli, "cic_dc_gain", lambda *geometry: real(*geometry) + 1)
    assert main(["verify", "--cases", "16"]) == EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    at = out.index("FAIL CIC vs moving-average reference after 16 cases")
    assert out[at + 1] == "  counterexample: CIC DC gain N=1 R=4 M=1: 4"  # (R * M)**N


def test_verify_refuses_fewer_than_one_case(capsys):
    for cases in ("0", "-5"):
        assert main(["verify", "--cases", cases]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert f"--cases must be at least 1, got {cases}" in err
        assert out == ""  # refused before any check ran


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


def test_loop_trigger_classes_override(artifacts, capsys):
    # every pulse train starts at a class 1 or 4 decision, and each such decision starts one
    root, _, compiled = artifacts
    out = root / "one-four.jsonl"
    rc = main(["loop", "--model", str(compiled), "--synthetic", "0",
               "--seconds", "120", "--trigger-classes", "1,4", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    decisions = {r["t_exact"]: r["payload"]["stage"] for r in rows if r["kind"] == "decision"}
    starts = [r["t_exact"] for r in rows if r["kind"] == "pulse_on"][::50]  # 5 s at 10 Hz
    assert sorted(decisions.values()) == [0, 0, 0, 4]
    assert starts == [t for t, stage in decisions.items() if stage in (1, 4)]
    assert sum(r["kind"] == "pulse_on" for r in rows) == 50


def test_loop_refuses_a_signal_the_config_does_not_describe(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    sig = tmp_path / "sig.muxs"
    samples = np.zeros(512 * 30, dtype=np.int16)
    for rate, bits, channels, match in (
            (512, 16, 2, "loop expects 1 channel, signal has 2"),
            (256, 16, 1, "signal is 256 Hz / 16 bits, config wants 512 Hz / 16 bits"),
            (512, 12, 1, "signal is 512 Hz / 12 bits, config wants 512 Hz / 16 bits")):
        write_signal(sig, samples, rate, bits, channels)
        rc = main(["loop", "--model", str(compiled), "--signal", str(sig),
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == EXIT_CONFIG, match
        assert f"config error: {match}" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


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
    sweep.write_text(json.dumps({"n": [2], "m": [4, 5, 10, 2]}))
    out = tmp_path / "sweep.csv"
    assert main(["cost", "--sweep", str(sweep), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5
    m5 = lines[2].split(",")
    assert m5[1] == "5" and m5[4] == ""  # odd m: no even split
    m10 = lines[3].split(",")
    assert float(m10[4]) == 512.0
    assert lines[4] == "2,2,4,12,"  # two 1-bit halves: no split either
    assert out.read_bytes() == (b"n,m,muxnet_bits,lut_bits,decomposition_ratio\r\n2,4,8,24,8.0\r\n"
                                b"2,5,10,30,\r\n2,10,20,60,512.0\r\n2,2,4,12,\r\n")
    capsys.readouterr()


@pytest.mark.parametrize("sweep, named", [
    ({"n": [2.5], "m": [5]}, "sweep.n[0]"),
    ({"n": [True], "m": [5.0]}, "sweep.n[0]"),
    ({"n": [2], "m": [5.0]}, "sweep.m[0]"),
    ({"m": [5]}, "'n'"),
    ({"n": [2]}, "'m'"),
    ({"n": 2, "m": [5]}, "sweep.n "),
    ({"n": [2], "m": [5], "x": [1]}, "'sweep.x'"),
    ([1, 2], "sweep must be dict"),
])
def test_cost_sweep_refuses_a_malformed_file_by_key(tmp_path, capsys, sweep, named):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    out = tmp_path / "sweep.csv"
    assert main(["cost", "--sweep", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_refuses_bad_data_before_scoring(artifacts, tmp_path, capsys, monkeypatch):
    # a NaN sample or label, or a fractional one, is the dataset's fault: exit 2, no CSV,
    # and no engine built for it
    _, _, compiled = artifacts

    def no_engine(*args, **kwargs):
        raise AssertionError("a refused dataset must not build an engine")

    monkeypatch.setattr(muxnet.cli, "MpuEngine", no_engine)
    segments = np.zeros((3, 6, 320))
    nan_sample = segments.copy()
    nan_sample[1, 2, 3] = np.nan
    data, out = tmp_path / "bad.npz", tmp_path / "x.csv"
    for arrays, match in (
            ({"segments": nan_sample}, "segments must be finite numbers"),
            ({"segments": segments, "labels": np.array([0.0, np.nan, 1.0])},
             "labels must be whole numbers in [0, 5)"),
            ({"segments": segments, "labels": np.array([0.0, 0.5, 1.0])},
             "labels must be whole numbers in [0, 5)"),
            ({"segments": segments, "labels": np.array([0, 5, 1])},
             "labels must be whole numbers in [0, 5)")):
        np.savez(data, **arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", "--model", str(compiled), "--data", str(data), "--out", str(out)])
        assert rc == EXIT_INPUT, match
        assert f"input error: BadArtifact: dataset {data}: {match}" in capsys.readouterr().err
        assert not out.exists()


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


def test_artifacts_the_engine_cannot_run_are_input_errors(artifacts, tmp_path, capsys):
    # each of these used to load, then exit 3 (a 1-bit table half), 1 (an
    # OverflowError, or engine != reference) or 0 (int64 wrapping alike in
    # engine and reference, or a pad code both skip); the shared validity
    # rules refuse them at load
    _, _, compiled = artifacts

    def with_layer(li: int, name: str, value: int):
        model = load_model(compiled)
        layer = model.layers[li]
        if name == "bias_q":
            layer.bias_q[0] = value
        else:
            setattr(layer, name, value)
        return model

    found = compile_model(default_float_model(seed=0), CompileConfig(conv_m=2, linear_m=2))
    found.layers[0].decomposed = True
    padded = load_model(compiled)
    padded.layers[0].line_indices[:, -1] |= 5 << padded.layers[0].mode_m  # fan-in 7 in 8 codes
    bad = tmp_path / "bad.muxn"
    for what, model in (("decomposed mode_m 2", found),
                        ("bias_q 2**40", with_layer(0, "bias_q", 2 ** 40)),
                        ("shift 127", with_layer(0, "shift", 127)),
                        ("requant flag cleared", with_layer(1, "requant", False)),
                        ("activation_bits 2 after 8", with_layer(2, "activation_bits", 2)),
                        ("pad code 5 past fan-in 7", padded)):
        save_model(model, bad)
        assert main(["verify", "--model", str(bad), "--cases", "16"]) == EXIT_INPUT, what
        assert "BadArtifact" in capsys.readouterr().err


def test_compile_refuses_a_checkpoint_that_would_overflow(tmp_path, capsys):
    model = default_float_model(seed=0)
    model.layers[0].bias[0] = 1e6
    ckpt, out = tmp_path / "big-bias.muxf", tmp_path / "big-bias.muxn"
    save_float_model(model, ckpt)
    assert main(["compile", "--model", str(ckpt), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert "past int64" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, match", [
    ("gamma", np.nan, "gamma contains nan/inf"),
    ("eps", 0.0, "eps must be positive, got 0.0"),
])
def test_compile_refuses_bad_batch_norm_by_name(tmp_path, capsys, field, value, match):
    model = default_float_model(seed=0)
    bn = model.layers[1].bn
    model.layers[1].bn = replace(bn, **{field: value if field == "eps" else np.full_like(bn.gamma, value)})
    ckpt, out = tmp_path / "bad-bn.muxf", tmp_path / "bad-bn.muxn"
    save_float_model(model, ckpt)
    assert main(["compile", "--model", str(ckpt), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert f"BadBNParams: {match}" in capsys.readouterr().err


def test_compile_refuses_a_checkpoint_with_subnormal_weights(tmp_path, capsys):
    # float32 in the checkpoint: the channel's scale is finite, its bias in
    # accumulator units (about -1e48) is not an int64
    model = default_float_model(seed=0)
    model.layers[0].weight[3] = 1e-45
    ckpt, out = tmp_path / "subnormal.muxf", tmp_path / "subnormal.muxn"
    save_float_model(model, ckpt)
    assert main(["compile", "--model", str(ckpt), "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    err = capsys.readouterr().err
    assert "layer 0: channel 3's bias" in err and "past int64" in err


def test_signal_samples_outside_declared_width_are_input_error(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    config = tmp_path / "twelve-bit.json"
    config.write_text(json.dumps({"loop": {"cic": {"input_bits": 12}}}))
    sig = tmp_path / "wide.muxs"
    # write_signal refuses such samples, so the file is built from the header
    # struct and the raw payload
    header = struct.pack("<4sHIHHQ", b"MUXS", 1, 512, 12, 1, 512 * 30)
    sig.write_bytes(header + np.full(512 * 30, 3000, dtype="<i2").tobytes())
    rc = main(["loop", "--model", str(compiled), "--signal", str(sig),
               "--out", str(tmp_path / "x.jsonl"), "--config", str(config)])
    assert rc == EXIT_INPUT
    assert "12-bit" in capsys.readouterr().err


def test_signal_header_refusals_are_input_errors(artifacts, tmp_path, capsys):
    # read_signal's header refusals reach the shell as exit 2, before the loop runs
    _, _, compiled = artifacts
    sig = tmp_path / "bad.muxs"
    payload = np.zeros(512 * 30, dtype="<i2").tobytes()
    for version, rate, bits, channels, match in ((2, 512, 16, 1, "unsupported signal version 2"),
                                                 (1, 0, 16, 1, "non-positive signal geometry"),
                                                 (1, 512, 16, 0, "non-positive signal geometry")):
        sig.write_bytes(struct.pack("<4sHIHHQ", b"MUXS", version, rate, bits, channels, 512 * 30) + payload)
        rc = main(["loop", "--model", str(compiled), "--signal", str(sig),
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == EXIT_INPUT, match
        err = capsys.readouterr().err
        assert "BadArtifact" in err and match in err


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


def test_dataset_without_epochs_or_votes_is_input_error(artifacts, tmp_path, capsys):
    # nothing to score is the input's fault: not nan accuracy, not a config error
    _, _, compiled = artifacts
    data = tmp_path / "empty.npz"
    for shape in ((0, 6, 320), (3, 0, 320)):
        np.savez(data, segments=np.zeros(shape))
        rc = main(["eval", "--model", str(compiled), "--data", str(data),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == EXIT_INPUT, shape
        assert "SegmentLengthError" in capsys.readouterr().err


def test_missing_file_is_input_error(tmp_path, capsys):
    rc = main(["compile", "--model", str(tmp_path / "nope.muxf"),
               "--out", str(tmp_path / "x.muxn")])
    assert rc == EXIT_INPUT
    capsys.readouterr()


def test_bad_config_is_config_error(artifacts, tmp_path, capsys, monkeypatch):
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
    # a search grid without points is refused, by name, before compiling starts
    with monkeypatch.context() as patch:
        patch.setattr(muxnet.cli, "compile_model", lambda *a: pytest.fail("compiled"))
        for points in (0, -1):
            bad_values.write_text(json.dumps({"compile": {"prescale_points": points}}))
            rc = main(["compile", "--model", str(ckpt), "--out", str(out),
                       "--config", str(bad_values)])
            assert rc == EXIT_CONFIG and not out.exists()
            assert f"config error: prescale_points must be at least 1, got {points}" in \
                capsys.readouterr().err
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


def test_engine_section_is_refused_by_every_command_that_reads_it(artifacts, tmp_path, capsys):
    # MpuConfig checks it at the model's n = 2: one config error line, and no output file
    _, ckpt, compiled = artifacts
    config, out, data = tmp_path / "engine.json", tmp_path / "out", tmp_path / "data.npz"
    np.savez(data, segments=np.zeros((1, 6, 320)))
    commands = (
        ["cost", "--model", str(compiled), "--out", str(out)],
        ["compile", "--model", str(ckpt), "--out", str(out), "--report"],
        ["verify", "--model", str(compiled), "--cases", "16"],
        ["loop", "--model", str(compiled), "--synthetic", "0", "--seconds", "30", "--out", str(out)],
        ["eval", "--model", str(compiled), "--data", str(data), "--out", str(out)],
    )
    for section, message in (
            ({"groups": 0}, "groups and activation_bits must be >= 1"),
            ({"group_vector_len": 0}, "group_vector_len 0 less than n=2"),
            ({"group_vector_len": 3}, "group_vector_len 3 not divisible by n=2")):
        config.write_text(json.dumps({"engine": section}))
        for command in commands:
            assert main(command + ["--config", str(config)]) == EXIT_CONFIG, (section, command[0])
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()


def test_settings_refused_by_a_value_error_stay_config_errors(artifacts, tmp_path, capsys):
    # options and files whose refusal is a ValueError of the call that builds from them
    _, _, compiled = artifacts
    out, sweep, config = tmp_path / "out", tmp_path / "sweep.json", tmp_path / "config.json"
    sweep.write_text(json.dumps({"n": [2, 0], "m": [5]}))
    np.savez(tmp_path / "data.npz", segments=np.zeros((1, 6, 320)))
    loop = ["loop", "--model", str(compiled), "--seconds", "30", "--out", str(out)]
    for argv, section, message in (
            (["init-model", "--out", str(out), "--seed", "-1"], None, "expected non-negative integer"),
            (["init-model", "--out", str(out), "--input-len", "8"], None, "math domain error"),
            (["verify", "--seed", "-1", "--cases", "16"], None, "expected non-negative integer"),
            (loop + ["--synthetic", "-1"], None, "expected non-negative integer"),
            (loop + ["--synthetic", "0", "--trigger-classes", "1,x"], None,
             "invalid literal for int() with base 10: 'x'"),
            (["make-signal", "--out", str(out), "--seconds", "nan"], None,
             "cannot convert float NaN to integer"),
            (["make-signal", "--out", str(out)], {"loop": {"cic": {"input_bits": 40}}},
             "signal bits must be in 1..32, got 40"),
            (["dump-table", "--out", str(out), "--m", "1"], None,
             "mode n=2, m=1: need n >= 1 and m >= 2"),
            (["cost", "--sweep", str(sweep), "--out", str(out)], None,
             "need n, m, num_chunks >= 1, got (0, 5, 1)"),
            (["cost", "--model", str(compiled), "--out", str(out)], {"cost": {"blocks": 0}},
             "need at least one block"),
            (["cost", "--model", str(compiled), "--out", str(out)], {"cost": {"capacity_bits": 5}},
             "capacity 5 cannot hold 204960 bits of weights"),
            (["eval", "--model", str(compiled), "--data", str(tmp_path / "data.npz"), "--out", str(out)],
             {"voting": {"thresholds": [1, 1]}}, "2 thresholds for 5 classes"),
            (loop + ["--synthetic", "0"], {"voting": {"thresholds": [1, 1]}}, "2 thresholds for 5 classes")):
        if section is not None:
            config.write_text(json.dumps(section))
            argv = argv + ["--config", str(config)]
        assert main(argv) == EXIT_CONFIG, message
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_a_loop_config_is_refused_before_a_signal_is_made(artifacts, tmp_path, capsys):
    # each of these divided inside synthetic_source, before any check ran
    _, _, compiled = artifacts
    out, config = tmp_path / "out", tmp_path / "config.json"
    commands = (["loop", "--model", str(compiled), "--synthetic", "0", "--out", str(out)],
                ["make-signal", "--out", str(out)])
    for section, seconds, message in (
            ({"votes_per_epoch": 0}, "90", "votes_per_epoch must be >= 1"),
            ({"input_rate_hz": 0}, "90", "input rate 0 is not a positive multiple of decimation 8"),
            ({"input_rate_hz": -512}, "90", "input rate -512 is not a positive multiple of decimation 8"),
            ({"input_rate_hz": 2, "cic": {"decimation": 4}}, "90",
             "input rate 2 is not a positive multiple of decimation 4"),
            ({"segment_samples": 0}, "90", "segment_samples must be >= 1"),
            ({}, "inf", "seconds must be finite and non-negative, got inf"),
            ({}, "-30", "seconds must be finite and non-negative, got -30.0")):
        config.write_text(json.dumps({"loop": section}))
        for command in commands:
            argv = command + ["--config", str(config), "--seconds", seconds]
            assert main(argv) == EXIT_CONFIG, argv
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()


def test_cost_refuses_a_negative_batch(artifacts, tmp_path, capsys):
    _, _, compiled = artifacts
    out, config = tmp_path / "cost.csv", tmp_path / "config.json"
    argv = ["cost", "--model", str(compiled), "--out", str(out), "--config", str(config)]
    config.write_text(json.dumps({"cost": {"batch": -1}}))
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: batch must be >= 0, got -1\n"
    assert not out.exists()
    config.write_text(json.dumps({"cost": {"batch": 0}}))  # a batch of nothing costs nothing
    assert main(argv) == EXIT_OK
    assert "cycles=0 mux_selects=0 memory_bits_read=0" in capsys.readouterr().out


def test_a_value_error_off_the_config_path_is_no_config_error(artifacts, tmp_path, monkeypatch):
    _, _, compiled = artifacts
    data, out = tmp_path / "data.npz", tmp_path / "eval.csv"
    np.savez(data, segments=np.zeros((1, 6, 320)))

    def broken(self, u):
        raise ValueError("an engine fault")

    monkeypatch.setattr(MpuEngine, "forward", broken)
    with pytest.raises(ValueError, match="an engine fault"):
        main(["eval", "--model", str(compiled), "--data", str(data), "--out", str(out)])
    assert not out.exists()


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


def test_dump_table_to_stdout(capsys):
    assert main(["dump-table", "--n", "2", "--m", "3", "--unsigned"]) == EXIT_OK
    want = io.StringIO()
    dump_table(build_static_table(2, 3, signed=False), want)
    assert capsys.readouterr().out == want.getvalue()


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


def test_a_closed_output_pipe_exits_141_and_prints_nothing():
    # as `| head -1` leaves it: the reader takes one line of a table that overfills the
    # pipe, or none of a config written after the reader has gone
    pythonpath = [str(Path(muxnet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    for command, lines in ((["dump-table", "--n", "2", "--m", "8"], 1), (["dump-config"], 0)):
        proc = subprocess.Popen([sys.executable, "-m", "muxnet.cli", *command], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(lines):
            assert proc.stdout.readline() == b"0 : 0 0 0 0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_PIPE, command
        assert proc.stderr.read() == b"", command  # no error line, no "Exception ignored"
        proc.stderr.close()


def test_a_closed_pipe_in_process(monkeypatch, capsys):
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", buffering=1) as pipe:  # line-buffered: the first line meets the closed pipe
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", pipe)
            assert main(["dump-config"]) == EXIT_PIPE
    assert capsys.readouterr() == ("", "")
