"""Early-stop voting: equivalence with full plurality, laziness, reporting."""

import io
import itertools

import numpy as np
import pytest

from muxnet.compiler import compile_model, default_float_model
from muxnet.engine import MpuEngine
from muxnet.errors import SegmentLengthError
from muxnet.pipeline import (
    EpochResult,
    VotingConfig,
    classify_segment,
    epoch_stage,
    evaluate_dataset,
    plurality_winner,
    safe_thresholds,
    write_report_csv,
)


def test_safe_threshold_values():
    assert safe_thresholds(6, 5) == (4, 4, 4, 4, 4)
    assert safe_thresholds(5, 3) == (3, 3, 3)
    assert safe_thresholds(1, 2) == (1, 1)
    with pytest.raises(ValueError):
        safe_thresholds(0, 5)


def test_early_stop_equals_full_plurality_exhaustively():
    # every possible 6-vote stream over 5 classes: stopping at the safe
    # threshold must name the same stage as counting all six votes
    cfg = VotingConfig(class_count=5, votes_per_epoch=6)
    for stream in itertools.product(range(5), repeat=6):
        result = epoch_stage(stream, lambda v: v, cfg)
        full = plurality_winner(np.bincount(stream, minlength=5))
        assert result.stage == full
        assert result.votes == stream[:result.classifications_used]
        if result.classifications_used < 6:
            assert result.votes.count(result.stage) == 4


def test_four_identical_votes_stop_the_epoch():
    result = epoch_stage([3, 3, 3, 3, 0, 1], lambda v: v)
    assert result == EpochResult(stage=3, classifications_used=4, votes=(3, 3, 3, 3))


def test_split_vote_runs_to_the_end():
    result = epoch_stage([0, 1, 0, 1, 0, 1], lambda v: v)
    assert result.classifications_used == 6
    assert result.stage == 0  # 3-3 tie resolves to the lowest class id
    # a longer stream is cut at votes_per_epoch: the seventh vote would make class 1 win
    assert epoch_stage([0, 1, 0, 1, 0, 1, 1], lambda v: v) == result


def test_skipped_segments_are_never_classified():
    calls = []

    def classify(v):
        calls.append(v)
        return v

    def stream():
        for i, v in enumerate([2, 2, 2, 2, 9, 9]):
            assert i < 4, "segment pulled after the vote closed"
            yield v

    result = epoch_stage(stream(), classify, VotingConfig())
    assert result.classifications_used == 4
    assert calls == [2, 2, 2, 2]


def test_vote_bounds_checked():
    cfg = VotingConfig(class_count=3)
    with pytest.raises(ValueError, match=r"class id 3 outside \[0, 3\)"):
        epoch_stage([3], lambda v: v, cfg)
    with pytest.raises(ValueError, match=r"class id -1 outside \[0, 3\)"):
        epoch_stage([-1], lambda v: v, cfg)


def test_aggressive_thresholds_are_explicit():
    cfg = VotingConfig(class_count=2, votes_per_epoch=6, thresholds=(1, 1))
    result = epoch_stage([1, 0, 0, 0, 0, 0], lambda v: v, cfg)
    assert result.stage == 1 and result.classifications_used == 1
    with pytest.raises(ValueError):
        VotingConfig(class_count=3, thresholds=(1, 1))


def test_short_stream_decides_on_what_was_seen():
    result = epoch_stage([2, 1, 2], lambda v: v, VotingConfig())
    assert result.stage == 2 and result.classifications_used == 3


def test_classify_segment_checks_length():
    engine = MpuEngine(compile_model(default_float_model(seed=0)))
    with pytest.raises(SegmentLengthError):
        classify_segment(engine, np.zeros(engine.model.input_len + 1))


def test_evaluate_dataset_and_csv():
    model = compile_model(default_float_model(seed=1))
    engine = MpuEngine(model)
    rng = np.random.default_rng(5)
    segs = rng.normal(scale=0.3, size=(4, 6, model.input_len))
    labels = rng.integers(0, 5, size=4)
    report = evaluate_dataset(engine, segs, labels)
    assert report.epochs == 4
    assert report.accuracy is not None and 0.0 <= report.accuracy <= 1.0
    assert report.savings_fraction == 1.0 - report.mean_classifications / 6.0
    for row in report.rows:
        assert 0 <= row.stage < 5
        assert 1 <= row.classifications_used <= 6

    buf = io.StringIO()
    write_report_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "epoch,stage,classifications_used,v0,v1,v2,v3,v4,v5"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 9
    used = int(first[2])
    cast = [c for c in first[3:] if c != ""]
    assert len(cast) == used  # skipped votes stay blank


def test_evaluate_dataset_compares_labels_exactly():
    engine = MpuEngine(compile_model(default_float_model(seed=1)))
    segs = np.zeros((2, 6, engine.model.input_len))
    stage = evaluate_dataset(engine, segs).rows[0].stage
    assert evaluate_dataset(engine, segs, np.array([stage, stage])).accuracy == 1.0
    assert evaluate_dataset(engine, segs, np.array([stage, stage + 0.5])).accuracy == 0.5


def test_evaluate_dataset_shape_errors():
    engine = MpuEngine(compile_model(default_float_model(seed=1)))
    with pytest.raises(SegmentLengthError):
        evaluate_dataset(engine, np.zeros((4, engine.model.input_len)))
    with pytest.raises(SegmentLengthError):
        evaluate_dataset(engine, np.zeros((2, 6, engine.model.input_len)), labels=np.zeros(3))
    with pytest.raises(SegmentLengthError, match="6 segments per epoch, config wants 5"):
        evaluate_dataset(engine, np.zeros((2, 6, engine.model.input_len)),
                         cfg=VotingConfig(votes_per_epoch=5))
