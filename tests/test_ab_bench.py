"""tools/ab_bench.py: its arguments and its staging of two trees into one checkout."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

BENCH_SPEC = {
    "workloads": [{"name": "closed_loop"}, {"name": "compile_sweep"}],
    "end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
                   {"name": "compile_models_per_s", "unit": "1/s", "better": "higher"}],
}


def make_tree(root: Path, tag: str) -> Path:
    """A checkout whose src/muxnet, bench/ and BENCHMARK.json all say which tree they are."""
    (root / "src" / "muxnet" / "__pycache__").mkdir(parents=True)
    (root / "src" / "muxnet" / "__init__.py").write_text(f"TAG = {tag!r}\n")
    (root / "src" / "muxnet" / "__pycache__" / "stale.pyc").write_text("stale")
    (root / "bench" / "out").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(f"# {tag}\n")
    (root / "bench" / "out" / "trace.json").write_text("{}")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCH_SPEC))
    return root


def snapshot(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def trees(tmp_path):
    return make_tree(tmp_path / "base", "base"), make_tree(tmp_path / "change", "change")


@pytest.mark.parametrize("extra, message", [
    (["--workload", "no_such"], "--workload must be one of"),
    (["--workload", "closed_loop", "--pairs", "0"], "must be positive, got 0"),
    (["--workload", "closed_loop", "--seconds", "-1"], "must be positive, got -1"),
    ([], "the following arguments are required: --workload"),
])
def test_bad_arguments_exit_2_by_name(trees, capsys, extra, message):
    base, change = trees
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([str(base), str(change), *extra], runner=None)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_a_tree_without_sources_or_a_base_without_the_bench_is_refused(trees, tmp_path, capsys):
    base, change = trees
    (tmp_path / "empty").mkdir()
    for argv, message in (([str(tmp_path / "empty"), str(change)], "no src/muxnet/__init__.py"),
                          ([str(base), str(tmp_path / "empty")], "no src/muxnet/__init__.py")):
        with pytest.raises(SystemExit) as exc:
            ab_bench.main([*argv, "--workload", "closed_loop"], runner=None)
        assert exc.value.code == 2 and message in capsys.readouterr().err
    (base / "BENCHMARK.json").unlink()
    with pytest.raises(SystemExit) as exc:
        ab_bench.main([str(base), str(change), "--workload", "closed_loop"], runner=None)
    assert exc.value.code == 2 and "no BENCHMARK.json" in capsys.readouterr().err


def test_both_sides_run_from_one_checkout_in_alternating_order(trees, capsys):
    base, change = trees
    before = {tree: snapshot(tree) for tree in trees}
    calls = []

    def runner(checkout, workload, seed, seconds):
        staged = snapshot(checkout)
        tag = "base" if b"'base'" in staged[Path("src/muxnet/__init__.py")] else "change"
        calls.append((checkout, tag, workload, seed, seconds, staged))
        rss = {"base": 62.0, "change": 61.5}[tag] + seed % 3 / 10
        return {"metrics": {"peak_rss_mb": rss, "compile_models_per_s": 147.0},
                "provenance": {"artifact_sha256": "e767", "run_log_sha256": tag}}

    assert ab_bench.main([str(base), str(change), "--workload", "compile_sweep", "--pairs", "3",
                          "--seconds", "2", "--seed", "40"], runner=runner) == 0
    assert [(tag, seed) for _, tag, _, seed, _, _ in calls] == [
        ("base", 40), ("change", 40), ("change", 41), ("base", 41), ("base", 42), ("change", 42)]
    checkouts = {checkout for checkout, *_ in calls}
    assert len(checkouts) == 1 and not checkouts.pop().exists()  # one path, removed at the end
    for _, tag, workload, _, seconds, staged in calls:
        assert (workload, seconds) == ("compile_sweep", 2.0)
        # the side's own sources without their bytecode, beside BASE's bench without its outputs
        assert sorted(map(str, staged)) == ["BENCHMARK.json", "bench/run.py", "src/muxnet/__init__.py"]
        assert staged[Path("bench/run.py")] == b"# base\n"
        assert staged[Path("src/muxnet/__init__.py")] == f"TAG = {tag!r}\n".encode()
    assert {tree: snapshot(tree) for tree in trees} == before
    out = capsys.readouterr().out
    assert "pair 1 seed 41 (change first) digests equal: {'artifact_sha256': True, 'run_log_sha256': False}" in out
    assert "base 62.1 [62.05, 62.15]  change 61.6 [61.55, 61.65]  change better in 3 of 3" in out
    assert "change better in 0 of 3" in out  # equal throughputs are not better
