"""Fixed-point weight codes, pre-scaled weight scaling, and output level sets.

Weights live as signed m-bit codes sharing one positive scale per group
(per layer, or per output channel for convolutions).  The concatenated
codes of an n-vector are exactly the static-table line index, so this
module is the front half of the weight-to-table translation.

The pre-scale search scores scales exactly with one ``(block, len)``
residual broadcast per block of scales, each row summed with ``np.dot`` as
in ``quantization_error``, so its errors match that function's bit for bit.
Where it pays (``bound_pass_pays``), a bound pass first scores every scale
from one sort and prefix sums of the weights, with a proven error bound,
and only the scales it cannot rule out are scored exactly; so the chosen
scale, ties included, is the one-scale-at-a-time loop's.

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

SEARCH_BLOCK_ELEMS = 1 << 16  # elements in one of choose_prescale's (scales, weights) blocks


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


def _round_saturate(w, w_abs, scale, m: int, out=None) -> np.ndarray:
    """Float codes of ``w`` (``w_abs`` is ``np.abs(w)``) at a broadcast positive ``scale``:
    round half away, then saturate."""
    lo, hi = code_range(m)
    q = np.divide(w_abs, scale, out=out)  # == |w / scale| exactly, as scale > 0
    q += 0.5
    np.floor(q, out=q)
    np.copysign(q, w, out=q)
    return q.clip(lo, hi, out=q)


def quantize_codes(weights: np.ndarray, m: int, scale) -> np.ndarray:
    """Array form of weight quantization: round-half-away, then saturate.

    Works on any shape; ``scale`` broadcasts against it (one positive scale per row, say).
    """
    w = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NonFiniteWeight("weight tensor contains nan/inf")
    if not (np.asarray(scale) > 0).all():
        raise ValueError(f"scale must be positive, got {scale}")
    return _round_saturate(w, np.abs(w), scale, m).astype(np.int64)


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


def bound_pass_pays(size: int, m: int) -> bool:
    """Whether ``choose_prescale`` shortlists from prefix sums: each scale's
    bound costs about ``levels * log2(size)`` against the exact pass's ``size``."""
    return (1 << (m - 1)) * math.log2(size) < size


@np.errstate(over="ignore", invalid="ignore")  # an overflowed score keeps every scale
def _shortlist(w, m: int, grid) -> np.ndarray:
    """The grid scales that may minimize the error, in grid order; every scale
    left out is provably worse than one kept.

    A weight's code magnitude is the number of edges ``(k - 1/2) s`` its
    ``|w|`` reaches, k = 1 .. 2**(m-1) - 1 for w >= 0 and up to 2**(m-1)
    for w < 0.  So from one sort and one prefix sum of ``w``, ``searchsorted``
    of the edges gives ``sum |code| |w|`` and ``sum code**2`` for every scale,
    and the error is ``sum w**2 - 2 s sum |code| |w| + s**2 sum code**2``.
    ``delta`` bounds that expansion's rounding and cancellation, weights
    within rounding of an edge, and the exact pass's own rounding (residual
    and ``np.dot``).
    """
    levels = 1 << (m - 1)
    w = np.sort(w)
    p1 = np.zeros(w.size + 1)
    np.cumsum(w, out=p1[1:])
    k = np.arange(1, levels + 1)
    edge = (k - 0.5) * grid[:, None]
    below = np.searchsorted(w, edge[:, :-1])  # per scale and edge: weights under +edge ...
    under = np.searchsorted(w, -edge, side="right")  # ... and at or under -edge
    lin = (p1[-1] - p1[below]).sum(axis=1) - p1[under].sum(axis=1)
    quad = ((2 * k[:-1] - 1) * (w.size - below)).sum(axis=1) + ((2 * k - 1) * under).sum(axis=1)
    s2 = (w * w).sum()
    s1 = p1[-1] - 2.0 * p1[np.searchsorted(w, 0.0)]
    approx = s2 - 2.0 * grid * lin + grid * grid * quad
    # With u = eps/2, N = len(w), K = levels: the prefix and plain sums err by
    # at most ~N u times the sum of their terms' magnitudes (so the expansion
    # by ~3(N + K) u spread), the exact pass's residuals and np.dot by
    # ~(N + 8) u (8 S2 + 2 N s**2), and a weight within rounding of an edge
    # by 2 u s (2|w| + s); 16 (N + K + 8) u spread covers all three, and the
    # 2**-1074 term covers underflow.
    spread = s2 + 2.0 * grid * levels * s1 + grid * grid * (quad + w.size)
    delta = 16.0 * (w.size + levels + 8) * (np.finfo(np.float64).eps / 2 * spread + 2.0 ** -1074)
    # NaN-safe: a scale is dropped only when its lower bound clears some upper bound
    return grid[~(approx - delta > np.min(approx + delta))]


def choose_prescale(weights, m: int, search_grid) -> float:
    """Pick the grid scale minimizing total squared quantization error.

    Ties break toward the smaller scale; all-zero weight vectors return the
    smallest grid scale.  Long vectors first shortlist the grid from sorted
    prefix sums (``_shortlist``); the kept scales are then scored exactly.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.all(np.isfinite(w)):
        raise NonFiniteWeight("weight vector contains nan/inf")
    grid = np.sort(np.asarray(search_grid, dtype=np.float64).ravel())
    if not grid.size:
        raise ValueError("search grid must be non-empty")
    if not np.all((grid > 0) & np.isfinite(grid)):
        raise ValueError("search grid scales must be positive and finite")
    if not np.any(w):
        return float(grid[0])
    if grid.size > 1 and bound_pass_pays(w.size, m):
        grid = _shortlist(w, m, grid)
    if grid.size == 1:
        return float(grid[0])
    w_abs = np.abs(w)
    rows = max(1, SEARCH_BLOCK_ELEMS // w.size)
    buf = np.empty((min(rows, grid.size), w.size))
    errs = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        s = grid[start:start + rows, None]
        r = _round_saturate(w, w_abs, s, m, out=buf[:len(s)])
        r *= s
        np.subtract(w, r, out=r)
        errs[start:start + len(s)] = [np.dot(row, row) for row in r]
    return float(grid[np.argmin(errs)])  # first minimum: the smaller scale


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
