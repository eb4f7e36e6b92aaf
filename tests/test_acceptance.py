"""Acceptance gate: the eleven go/no-go checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the criterion at its stated tolerance.  Oracle values are
computed from first principles inside each test before any comparison
with the implementation under test.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from muxnet.compiler import (
    ACT_NONE,
    CompiledLayer,
    CompiledModel,
    compile_model,
    default_float_model,
)
from muxnet.costmodel import decomposition_cost, memory_cost, model_cost_report
from muxnet.engine import MpuEngine
from muxnet.frontend import CicConfig, LoopConfig, cic_decimate, run_closed_loop
from muxnet.mpu import MpuConfig, batch_inner_product, bitserial_inner_product
from muxnet.pipeline import VotingConfig, epoch_stage, evaluate_dataset, plurality_winner
from muxnet.quantizer import (
    QParams,
    QuantizedWeightVector,
    choose_prescale,
    default_prescale_grid,
    quantization_error,
)
from muxnet.reference import cic_reference, decode_line_indices, reference_logits
from muxnet.static_table import build_static_table, combined_entry, decompose_table


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _decode(line: int, n: int, m: int) -> list[int]:
    # independent signed decode: integer fields, two's-complement by hand
    half, full = 1 << (m - 1), 1 << m
    out = []
    for i in range(n):
        field = (line >> (i * m)) & (full - 1)
        out.append(field - full if field >= half else field)
    return out


def test_criterion_01_exhaustive_small_mode():
    started = time.monotonic()
    table = build_static_table(2, 3)
    cfg = MpuConfig(n=2, m=3, groups=1, group_vector_len=2,
                    activation_bits=4, activation_signed=False)
    mismatches = 0
    checked = 0
    for line in range(1 << 6):
        codes = _decode(line, 2, 3)
        qwv = QuantizedWeightVector(codes=tuple(codes), qparams=QParams(m=3, scale=1.0))
        for x0 in range(16):
            for x1 in range(16):
                want = codes[0] * x0 + codes[1] * x1      # direct MAC
                got = bitserial_inner_product([qwv], [x0, x1], cfg, table)
                checked += 1
                if got != want:
                    mismatches += 1
    elapsed = time.monotonic() - started
    _report(1, mismatches == 0 and elapsed < 10.0,
            f"exhaustive n=2 m=3 4-bit unsigned: {checked} cases, "
            f"{mismatches} mismatches, {elapsed:.2f} s (< 10 s)")


def test_criterion_02_randomized_default_modes():
    started = time.monotonic()
    rng = np.random.default_rng(20)
    cases = 100_000
    chunks = 4
    total = {}
    for m, decomposed in ((5, False), (10, True)):
        tables = decompose_table(2, m) if decomposed else build_static_table(2, m)
        cfg = MpuConfig(n=2, m=m, groups=8, group_vector_len=8,
                        activation_bits=8, activation_signed=True)
        lines = rng.integers(0, 1 << (2 * m), size=(cases, chunks), dtype=np.int64)
        acts = rng.integers(-128, 128, size=(cases, chunks * 2), dtype=np.int64)
        codes = decode_line_indices(lines, 2, m)           # arithmetic decode
        want = np.einsum("ij,ij->i", codes, acts)          # direct MAC
        got = batch_inner_product(lines, acts, cfg, tables)
        total[m] = int(np.count_nonzero(got != want))
    elapsed = time.monotonic() - started
    ok = total == {5: 0, 10: 0} and elapsed < 30.0
    _report(2, ok,
            f"random n=2, {cases} cases/mode: m=5 {total[5]} mismatches, "
            f"m=10-decomposed {total[10]} mismatches, {elapsed:.2f} s (< 30 s)")


def test_criterion_03_table_decomposition():
    mono10 = build_static_table(2, 10)                     # built once
    dec10 = decompose_table(2, 10)
    rng = np.random.default_rng(30)
    lines = rng.integers(0, 1 << 20, size=10_000)
    bad = 0
    for line in lines:
        for key in range(4):
            if combined_entry(dec10, int(line), key) != int(mono10.lines[line, key]):
                bad += 1
    mono6 = build_static_table(2, 6)
    dec6 = decompose_table(2, 6)
    for line in range(1 << 12):                            # exhaustive at m=6
        for key in range(4):
            if combined_entry(dec6, line, key) != int(mono6.lines[line, key]):
                bad += 1
    ratio = decomposition_cost(2, 10).ratio
    _report(3, bad == 0 and ratio == 512.0,
            f"decomposed == monolithic on 10000 random m=10 lines and all m=6 "
            f"lines ({bad} mismatches); entry-count ratio {ratio:.0f} == 512 "
            f"(the 59x/548x silicon ratios are not modeled)")


def test_criterion_04_memory_formulas():
    bad = 0
    for n in range(1, 9):
        for m in range(1, 11):
            want = (m * n, m * (1 << n) + m * n)           # mn vs m*2^n + mn
            if memory_cost(n, m) != want:
                bad += 1
    anchors = memory_cost(2, 5) == (10, 30) and memory_cost(8, 8) == (64, 2112)
    _report(4, bad == 0 and anchors,
            f"memory_cost over (n,m) in 1..8 x 1..10: {bad} mismatches; "
            f"(2,5)->(10,30) and (8,8)->(64,2112) exact")


def test_criterion_05_ipc_enumeration():
    counts_ok = all(
        build_static_table(2, m).line_count == 1 << (2 * m) for m in (2, 3, 5)
    )
    bad = 0
    entries = 0
    for n, m in ((2, 2), (2, 3), (2, 5), (2, 6), (3, 4), (4, 3)):
        table = build_static_table(n, m)
        for line in range(table.line_count):
            codes = _decode(line, n, m)
            for key in range(1 << n):
                want = sum(codes[i] for i in range(n) if (key >> i) & 1)
                entries += 1
                if int(table.lines[line, key]) != want:
                    bad += 1
    _report(5, counts_ok and bad == 0,
            f"line counts 2**(n*m) at (2,2),(2,3),(2,5); {entries} entries "
            f"verified against subset sums for n*m <= 12, {bad} mismatches")


def test_criterion_06_prescale_search():
    # 256-point instance of the documented log grid: the 64-point default is
    # too coarse to pin the sharp error notch near the max-abs mapping
    rng = np.random.default_rng(60)
    m = 5
    points = 256
    qmax = (1 << (m - 1)) - 1
    wins = 0
    grid_optimal = True
    trials = 1000
    for _ in range(trials):
        w = rng.normal(size=8)
        naive = float(np.max(np.abs(w))) / qmax
        err_naive = quantization_error(w, m, naive)
        grid = default_prescale_grid(w, m, points)
        chosen = choose_prescale(w, m, grid)
        err_chosen = quantization_error(w, m, chosen)
        if err_chosen <= err_naive:
            wins += 1
        best = min(quantization_error(w, m, float(s)) for s in grid)
        if err_chosen != best:
            grid_optimal = False
    _report(6, wins >= 950 and grid_optimal,
            f"{points}-point grid search <= naive max-abs error on "
            f"{wins}/{trials} vectors (>= 950) and always grid-optimal "
            f"(published accuracy gains need training, not reproduced)")


def test_criterion_07_early_stop_voting():
    cfg = VotingConfig(class_count=5, votes_per_epoch=6)
    assert cfg.effective_thresholds() == (4, 4, 4, 4, 4)
    disagreements = 0
    for stream in itertools.product(range(5), repeat=6):
        early = epoch_stage(stream, lambda v: v, cfg).stage
        full = plurality_winner(np.bincount(stream, minlength=5))
        if early != full:
            disagreements += 1
    stable = [epoch_stage([c] * 6, lambda v: v, cfg) for c in range(5) for _ in range(8)]
    used = float(np.mean([r.classifications_used for r in stable]))
    saving = 1.0 - used / 6.0
    _report(7, disagreements == 0,
            f"all 15625 vote streams: early == plurality ({disagreements} "
            f"disagreements); stage-stable stream saves {saving:.1%} of "
            f"classifications (workload-dependent, reported not asserted)")


def test_criterion_08_cic_correctness():
    rng = np.random.default_rng(80)
    bad = []
    for stages in (1, 2, 3):
        for decimation in (2, 4, 8):
            for diff_delay in (1, 2):
                cfg = CicConfig(stages=stages, decimation=decimation,
                                diff_delay=diff_delay, input_bits=16)
                x = rng.integers(-32768, 32768, size=10_000, dtype=np.int64)
                if not np.array_equal(cic_decimate(x, cfg),
                                      cic_reference(x, stages, decimation, diff_delay)):
                    bad.append((stages, decimation, diff_delay))
                const = np.full(decimation * diff_delay * (stages + 2) * 4, 11,
                                dtype=np.int64)
                if cic_decimate(const, cfg)[-1] != 11 * cfg.dc_gain:
                    bad.append(("dc", stages, decimation, diff_delay))
    _report(8, not bad,
            f"18 (N,R,M) configs x 10000 samples bit-exact vs moving-average "
            f"cascade; DC gain (R*M)**N on constant input; failures: {bad or 'none'}")


def test_criterion_09_end_to_end_bit_identity():
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    rng = np.random.default_rng(90)
    u = rng.integers(0, 256, size=(100, model.input_len), dtype=np.int64)
    got = engine.forward(u)
    bad = 0
    for i in range(100):
        want = reference_logits(model, u[i])               # pure-integer MACs
        if not np.array_equal(got[i], want):
            bad += 1
    argmax_same = np.array_equal(np.argmax(got, axis=1), engine.classify(u))
    _report(9, bad == 0 and argmax_same,
            f"default 4-layer CNN, 100 random segments: engine logits "
            f"bit-identical to integer reference ({bad} mismatches), argmax identical")


def test_criterion_10_closed_loop_protocol():
    # fixture model that always predicts class 2 (the stimulation trigger)
    out, chunks = 5, 160
    bias = np.zeros(out, dtype=np.int64)
    bias[2] = 7
    layer = CompiledLayer(
        kind="linear", mode_m=5, decomposed=False, in_channels=320,
        out_channels=out, kernel=0, stride=1, fan_in=320, chunks=chunks,
        line_indices=np.zeros((out, chunks), dtype=np.int64), bias_q=bias,
        mult=np.zeros(out, dtype=np.int64), shift=1, requant=False,
        activation=ACT_NONE, activation_bits=8, activation_signed=False,
        weight_scales=np.ones(out), in_scale=1.0 / 128.0, out_scale=None,
    )
    model = CompiledModel(n=2, input_len=320, input_channels=1,
                          input_zero_point=128, input_scale=1.0 / 128.0,
                          layers=[layer])
    log = run_closed_loop(MpuEngine(model), np.zeros(512 * 30, dtype=np.int64),
                          LoopConfig())
    grid = Fraction(1, 10)
    width = Fraction(1, 100)
    on_grid = all((p.t_on - log.decisions[0].t) % grid == 0 for p in log.pulses)
    widths_ok = all(p.t_off - p.t_on == width for p in log.pulses)
    ok = (len(log.decisions) == 1 and log.decisions[0].stage == 2
          and len(log.pulses) == 50 and on_grid and widths_ok)
    _report(10, ok,
            f"forced-NREM fixture: {len(log.pulses)} pulses at 10 Hz, on-times "
            f"on the exact 100 ms grid, widths exactly 10 ms")


def test_criterion_11_scope_statement_and_harness():
    not_reproduced = [
        "DREAMS 82.4% / mice 84.3% accuracy (no training recipe or weights)",
        "172.4 uW power and 0.2 uJ per classification (silicon measurements)",
        "0.34x multiplier power ratio",
        "56.7% power-gating saving (layout-dependent)",
        "59x / 548x silicon area-power ratios",
    ]
    # what ships instead: a scoring harness for user-trained models and an
    # abstract cost model reporting the analogous quantities
    model = compile_model(default_float_model(seed=0))
    engine = MpuEngine(model)
    rng = np.random.default_rng(110)
    segs = rng.normal(scale=0.2, size=(3, 6, model.input_len))
    labels = rng.integers(0, 5, size=3)
    report = evaluate_dataset(engine, segs, labels)
    cost = model_cost_report(model)
    harness_ok = (
        report.accuracy is not None
        and 0.0 <= report.accuracy <= 1.0
        and report.epochs == 3
        and cost.mux_selects > 0
        and cost.memory_bits_read > 0
        and cost.energy() > 0
        and 0.0 <= cost.gating.saved_fraction < 1.0
    )
    for item in not_reproduced:
        print(f"  not reproduced at desk scale: {item}")
    _report(11, harness_ok,
            "evaluation harness scores labeled datasets; cost model reports "
            "abstract mux/memory/adder activity and gating in place of silicon figures")
