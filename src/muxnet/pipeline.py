"""Epoch staging by early-stop voting over per-segment classifications.

An epoch is scored by classifying its segments one at a time and voting.
With the default safe thresholds (floor(votes/2)+1), a class that reaches
its threshold early has already won every possible completion of the
stream, so classification can stop without changing the outcome; the
skipped classifications are the energy saving.  Aggressive per-class
thresholds are config-exposed but never a silent default.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Callable, IO, Iterable

import numpy as np

from .compiler import quantize_input
from .engine import MpuEngine
from .errors import SegmentLengthError


def safe_thresholds(votes_per_epoch: int, class_count: int) -> tuple[int, ...]:
    """Smallest uniform thresholds under which an early winner is final.

    A class holding floor(V/2)+1 votes leaves at most V - (floor(V/2)+1)
    <= floor(V/2) votes for any rival, so the plurality cannot flip.
    """
    if votes_per_epoch < 1 or class_count < 1:
        raise ValueError("need votes_per_epoch >= 1 and class_count >= 1")
    return (votes_per_epoch // 2 + 1,) * class_count


@dataclass(frozen=True)
class VotingConfig:
    class_count: int = 5
    votes_per_epoch: int = 6
    thresholds: tuple[int, ...] | None = None  # None: safe_thresholds

    def __post_init__(self) -> None:
        if self.thresholds is not None and len(self.thresholds) != self.class_count:
            raise ValueError(
                f"{len(self.thresholds)} thresholds for {self.class_count} classes"
            )

    def effective_thresholds(self) -> tuple[int, ...]:
        if self.thresholds is not None:
            return self.thresholds
        return safe_thresholds(self.votes_per_epoch, self.class_count)


def plurality_winner(counts) -> int:
    """Most-voted class; ties resolve to the lowest class id."""
    return int(np.argmax(np.asarray(counts)))


@dataclass(frozen=True)
class EpochResult:
    stage: int
    classifications_used: int
    votes: tuple[int, ...]  # the votes actually cast, in order


def epoch_stage(
    segments: Iterable,
    classify: Callable[[np.ndarray], int],
    cfg: VotingConfig = VotingConfig(),
) -> EpochResult:
    """Stage one epoch, classifying segments lazily until the vote closes.

    The first class to reach its threshold wins, and no later segment is
    pulled; otherwise the plurality of the votes seen wins, a short stream's
    included."""
    thresholds = cfg.effective_thresholds()
    counts = [0] * cfg.class_count
    cast: list[int] = []
    for segment in itertools.islice(segments, cfg.votes_per_epoch):
        class_id = classify(segment)
        if not 0 <= class_id < cfg.class_count:
            raise ValueError(f"class id {class_id} outside [0, {cfg.class_count})")
        counts[class_id] += 1
        cast.append(class_id)
        if counts[class_id] >= thresholds[class_id]:
            return EpochResult(class_id, len(cast), tuple(cast))
    return EpochResult(plurality_winner(counts), len(cast), tuple(cast))


def classify_segment(engine: MpuEngine, segment: np.ndarray) -> int:
    """Quantize one real-valued segment and classify it on the MUX engine."""
    seg = np.asarray(segment, dtype=np.float64).reshape(-1)
    want = engine.model.input_channels * engine.model.input_len
    if seg.size != want:
        raise SegmentLengthError(f"segment has {seg.size} samples, model wants {want}")
    return int(engine.classify(quantize_input(seg, engine.model)))


@dataclass
class EvalReport:
    rows: list[EpochResult]
    votes_per_epoch: int
    accuracy: float | None  # None without labels
    mean_classifications: float
    savings_fraction: float  # 1 - mean_used / votes_per_epoch

    @property
    def epochs(self) -> int:
        return len(self.rows)


def evaluate_dataset(
    engine: MpuEngine,
    segments: np.ndarray,
    labels: np.ndarray | None = None,
    cfg: VotingConfig | None = None,
) -> EvalReport:
    """Score a labeled dataset: segments is (epochs, votes_per_epoch, samples)."""
    segs = np.asarray(segments, dtype=np.float64)
    if segs.ndim != 3:
        raise SegmentLengthError(f"dataset must be (epochs, votes, samples), got {segs.shape}")
    if cfg is None:
        cfg = VotingConfig(class_count=engine.model.class_count, votes_per_epoch=segs.shape[1])
    if segs.shape[1] != cfg.votes_per_epoch:
        raise SegmentLengthError(
            f"dataset carries {segs.shape[1]} segments per epoch, config wants {cfg.votes_per_epoch}"
        )
    rows = [
        epoch_stage(epoch, lambda s: classify_segment(engine, s), cfg)
        for epoch in segs
    ]
    accuracy = None
    if labels is not None:
        lab = np.asarray(labels).reshape(-1)
        if lab.size != len(rows):
            raise SegmentLengthError(f"{lab.size} labels for {len(rows)} epochs")
        accuracy = float(np.mean([r.stage == l for r, l in zip(rows, lab)]))
    mean_used = float(np.mean([r.classifications_used for r in rows])) if rows else 0.0
    return EvalReport(
        rows=rows,
        votes_per_epoch=cfg.votes_per_epoch,
        accuracy=accuracy,
        mean_classifications=mean_used,
        savings_fraction=1.0 - mean_used / cfg.votes_per_epoch if rows else 0.0,
    )


def write_report_csv(report: EvalReport, stream: IO[str]) -> None:
    """One row per epoch: epoch,stage,classifications_used,v0.. (blank if skipped)."""
    writer = csv.writer(stream)
    writer.writerow(["epoch", "stage", "classifications_used"]
                    + [f"v{i}" for i in range(report.votes_per_epoch)])
    for e, row in enumerate(report.rows):
        votes = list(row.votes) + [""] * (report.votes_per_epoch - len(row.votes))
        writer.writerow([e, row.stage, row.classifications_used] + votes)
