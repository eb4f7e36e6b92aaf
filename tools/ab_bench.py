"""Paired end-to-end benchmark runs of two muxnet source trees, from one path.

    python3 tools/ab_bench.py BASE CHANGE --workload W [--pairs 5] [--seconds 30] [--seed 9000]

BASE and CHANGE are checkouts holding ``src/muxnet`` (for example ones
unpacked with ``git archive``); BASE also holds ``bench/`` and
``BENCHMARK.json``.  The tool makes one temporary checkout with BASE's
``bench/`` and ``BENCHMARK.json``.  Before each run it replaces that
checkout's ``src/muxnet`` with a fresh copy of one tree's (no
``__pycache__``), then runs ``bench/run.py`` there.  So both sides run from
the same path, and neither tree is written to: ``peak_rss_mb`` moves with
the path a run starts from, so runs from two checkouts do not compare.

Pair i runs both sides at seed ``--seed + i``, BASE first in even pairs and
CHANGE first in odd ones.  The tool prints each pair's end-to-end metrics
(the ``end_to_end`` list of BASE's ``BENCHMARK.json``) and whether the two
runs' artifact and run-log digests agree.  Then, per metric, it prints each
side's median and quartiles and the number of pairs in which CHANGE was
better.  A run that exits nonzero (a failed gate) stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _tree(path: str) -> Path:
    root = Path(path).resolve()
    if not (root / "src" / "muxnet" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{path}: no src/muxnet/__init__.py")
    return root


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=_tree)
    parser.add_argument("change", type=_tree)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=_positive(int), default=5)
    parser.add_argument("--seconds", type=_positive(float), default=30.0)
    parser.add_argument("--seed", type=int, default=9000)
    args = parser.parse_args(argv)
    for part in ("bench/run.py", "BENCHMARK.json"):
        if not (args.base / part).is_file():
            parser.error(f"{args.base}: no {part}")
    args.spec = json.loads((args.base / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in args.spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}, got {args.workload!r}")
    return args


def make_checkout(base: Path) -> Path:
    """A temporary checkout holding BASE's ``bench/`` (no outputs) and ``BENCHMARK.json``."""
    checkout = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    shutil.copytree(base / "bench", checkout / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy2(base / "BENCHMARK.json", checkout)
    return checkout


def stage(tree: Path, checkout: Path) -> None:
    """Replace the checkout's ``src/muxnet`` with a fresh copy of ``tree``'s."""
    dest = checkout / "src" / "muxnet"
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(tree / "src" / "muxnet", dest, ignore=shutil.ignore_patterns("__pycache__"))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its metric values and provenance."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"ab_bench: bench/run.py exited {proc.returncode} (seed {seed})")
    lines = proc.stdout.splitlines()
    provenance = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance "))
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    return {"metrics": metrics, "provenance": provenance}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None, runner=run_bench) -> int:
    args = parse_args(argv)
    metrics = args.spec["end_to_end"]
    trees = {"base": args.base, "change": args.change}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    checkout = make_checkout(args.base)
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                stage(trees[side], checkout)
                runs[side].append(runner(checkout, args.workload, seed, args.seconds))
            a, b = runs["base"][-1], runs["change"][-1]
            same = {key: a["provenance"].get(key) == b["provenance"].get(key)
                    for key in ("artifact_sha256", "run_log_sha256")}
            print(f"pair {i} seed {seed} ({order[0]} first) digests equal: {same}")
            for m in metrics:
                print(f"  {m['name']:34s} base {a['metrics'][m['name']]:<12.6g} "
                      f"change {b['metrics'][m['name']]:<12.6g} {m['unit']}", flush=True)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    print(f"{args.workload}: {args.pairs} pairs, median [quartiles] per side")
    for m in metrics:
        name = m["name"]
        base, change = ([r["metrics"][name] for r in runs[side]] for side in ("base", "change"))
        sign = -1 if m["better"] == "lower" else 1
        better = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        print(f"  {name:34s} base {b2:.6g} [{b1:.6g}, {b3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]"
              f"  change better in {better} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
