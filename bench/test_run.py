"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = run.Sizes(loop_signal_s=480, eval_segments=run.EVAL_BATCH, sweep_lengths=(320,),
                 sweep_inputs=4)
SPEC = run.load_spec()


def _main(capsys, workload: str, trace: int) -> tuple[int, list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_reported_with_unit_and_direction(capsys, workload, trace):
    code, lines, result = _main(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = {line.split()[0]: line.split() for line in lines[:-1]}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
        assert m["better"] in ("higher", "lower")
        assert table[m["name"]][2:4] == [m["unit"], m["better"]]
    assert float(table["mismatch_fraction"][1]) == 0.0


def test_gate_fires_on_a_perturbed_table(capsys, monkeypatch):
    from muxnet import cli, engine

    real = engine.build_static_table

    def perturbed(n, m, signed=True):
        return cli._perturbed_table(m) if (n, m, signed) == (2, 5, True) else real(n, m, signed)

    monkeypatch.setattr(engine, "build_static_table", perturbed)
    code, lines, result = _main(capsys, "batch_eval", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    mismatch = next(line for line in lines if line.startswith("mismatch_fraction"))
    assert float(mismatch.split()[1]) > 0


def test_layer_spans_account_for_forward_and_live_counts_match_costmodel():
    bench, _, metrics = run.run_workload("closed_loop", 3, 0, True, TINY)
    tracer = bench.tracer
    forwards = tracer.select("engine.forward", "loop")
    assert forwards
    layer_count = len(bench.engine.model.layers)
    for fwd in forwards:
        layers = tracer.children([fwd], "mpu.pe_forward")
        assert [s.order for s in layers] == list(range(layer_count))
    samples = sum(s.value for s in forwards)
    accounted = samples * sum(metrics[f"mpu.L{li}.ms_per_sample"] for li in range(layer_count))
    accounted += sum(s.self_ms for s in forwards)
    assert accounted == pytest.approx(sum(s.ms for s in forwards), rel=1e-9)
    # the counts each pe_forward call added to the engine's live counters
    pe = tracer.children(forwards, "mpu.pe_forward")
    for li in range(layer_count):
        live = [sum(counts) for counts in zip(*(s.value for s in pe if s.order == li))]
        fields = ("cycles", "mux_selects", "memory_bits_read")
        assert live == [samples * metrics[f"mpu.L{li}.{f}"] for f in fields]
    assert bench.gate.failed == 0
