"""Fixed-point weight codes, pre-scaled weight scaling, and output level sets.

Weights live as signed m-bit codes sharing one positive scale per group
(per layer, or per output channel for convolutions).  The concatenated
codes of an n-vector are exactly the static-table line index, so this
module is the front half of the weight-to-table translation.

The inner-product outputs of the table datapath are exact subset sums, so
their reachable level set is denser than a uniform m-bit grid; that
effective non-uniform quantization is characterized here
(``effective_output_levels`` / ``level_gap_stats``) rather than applied as
a separate re-encoding step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLarge, NonFiniteWeight

# Largest n*m this package will enumerate (2**(n*m) table lines).
ENUM_BUDGET_BITS = 20


def code_range(m: int) -> tuple[int, int]:
    """Inclusive [lo, hi] range of a signed m-bit two's-complement code."""
    return -(1 << (m - 1)), (1 << (m - 1)) - 1


def round_half_away(x):
    """Round to nearest integer with halves away from zero (symmetric in sign)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QParams:
    """Bit-width and shared scale of one quantized weight group.

    Codes are two's-complement, so the representable range is
    [-2**(m-1), 2**(m-1)-1].
    """

    m: int
    scale: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"weight bit-width must be >= 2, got {self.m}")
        if not (isinstance(self.scale, (int, float)) and math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be a positive finite real, got {self.scale!r}")


@dataclass(frozen=True)
class QuantizedWeightVector:
    """n signed m-bit codes plus their shared scale.

    The concatenation of the codes (code[0] in the least-significant field)
    is n*m bits and is used directly as the static-table line index.
    """

    codes: tuple[int, ...]
    qparams: QParams

    def __post_init__(self) -> None:
        if len(self.codes) == 0:
            raise ValueError("weight vector must be non-empty")
        lo, hi = code_range(self.qparams.m)
        for c in self.codes:
            if not lo <= c <= hi:
                raise ValueError(f"code {c} outside signed {self.qparams.m}-bit range [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def m(self) -> int:
        return self.qparams.m

    @property
    def scale(self) -> float:
        return self.qparams.scale


def activation_range(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def quantize_codes(weights: np.ndarray, m: int, scale: float) -> np.ndarray:
    """Array form of weight quantization: round-half-away, then saturate.

    Works on any shape; used by the compiler on whole tensors.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFiniteWeight("weight tensor contains nan/inf")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    lo, hi = code_range(m)
    return np.clip(round_half_away(w / scale), lo, hi).astype(np.int64)


def quantize_weights(weights, m: int, scale: float) -> QuantizedWeightVector:
    """Quantize one weight vector onto the m-bit grid defined by ``scale``."""
    w = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d weight vector, got shape {w.shape}")
    qp = QParams(m=m, scale=float(scale))
    codes = quantize_codes(w, m, qp.scale)
    return QuantizedWeightVector(codes=tuple(int(c) for c in codes), qparams=qp)


def quantization_error(weights, m: int, scale: float) -> float:
    """Total squared error of quantizing ``weights`` at the given scale."""
    w = np.asarray(weights, dtype=np.float64)
    codes = quantize_codes(w, m, scale)
    residual = w - scale * codes
    return float(np.dot(residual, residual))


def default_prescale_grid(weights, m: int, points: int = 64) -> np.ndarray:
    """Search grid for the pre-scale: log-spaced around the max-abs mapping.

    Spans max|w| / 2**(m-1) times [0.5, 2.0].  All-zero weights get the
    degenerate grid [1.0] (every scale is equally good there).
    """
    w = np.asarray(weights, dtype=np.float64)
    peak = float(np.max(np.abs(w))) if w.size else 0.0
    if peak == 0.0:
        return np.array([1.0])
    center = peak / (1 << (m - 1))
    return np.geomspace(0.5 * center, 2.0 * center, points)


def choose_prescale(weights, m: int, search_grid) -> float:
    """Pick the grid scale minimizing total squared quantization error.

    Ties break toward the smaller scale; all-zero weight vectors return the
    smallest grid scale.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.all(np.isfinite(w)):
        raise NonFiniteWeight("weight vector contains nan/inf")
    grid = sorted(float(s) for s in np.asarray(search_grid, dtype=np.float64).ravel())
    if not grid:
        raise ValueError("search grid must be non-empty")
    if any(s <= 0 for s in grid):
        raise ValueError("search grid scales must be positive")
    if not np.any(w):
        return grid[0]
    best_scale = grid[0]
    best_err = quantization_error(w, m, grid[0])
    for s in grid[1:]:
        err = quantization_error(w, m, s)
        if err < best_err:
            best_scale, best_err = s, err
    return best_scale


def effective_output_levels(n: int, m: int) -> np.ndarray:
    """All subset-sum values reachable by any m-bit code vector of length n.

    Grown position by position: each position either contributes nothing or
    any code in range, so the reachable set after i positions is
    A_i = A_{i-1} | (A_{i-1} + [lo, hi]).  Equivalent to brute force over
    all 2**(n*m) code vectors and 2**n subsets, verified by test.
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    if n * m > ENUM_BUDGET_BITS:
        raise EnumerationTooLarge(f"n*m = {n * m} exceeds the enumeration budget of {ENUM_BUDGET_BITS}")
    lo, hi = code_range(m) if m >= 2 else (-1, 0)
    rng = np.arange(lo, hi + 1, dtype=np.int64)
    levels = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        levels = np.union1d(levels, (levels[:, None] + rng[None, :]).ravel())
    return levels


@dataclass(frozen=True)
class GapStats:
    """Adjacent-level spacing of the reachable output set vs a uniform grid."""

    mean_gap: float
    uniform_gap: float
    ratio: float  # mean_gap / uniform_gap; < 1 means finer than the m-bit grid


def level_gap_stats(n: int, m: int) -> GapStats:
    """Mean adjacent gap of reachable levels vs a uniform m-bit grid on the same range."""
    levels = effective_output_levels(n, m)
    span = float(levels[-1] - levels[0])
    if len(levels) < 2 or span == 0.0:
        return GapStats(0.0, 0.0, 0.0)
    mean_gap = span / (len(levels) - 1)
    uniform_gap = span / ((1 << m) - 1)
    return GapStats(mean_gap, uniform_gap, mean_gap / uniform_gap)
