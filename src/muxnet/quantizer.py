"""Fixed-point weight codes and pre-scaled weight scaling.

Weights live as signed m-bit codes sharing one positive scale per group
(per layer, or per output channel for convolutions).  The concatenated
codes of an n-vector are exactly the static-table line index, so this
module is the front half of the weight-to-table translation.

The pre-scale search runs once per weight matrix, each row on its own grid,
times 2**-e for e the binary exponent of the row's max|w|: exact, so errors
match ``quantization_error``'s up to 4**-e and never overflow or all
underflow.  Where it pays (``bound_pass_pays``), a bound pass scores a row's
scales from sorted prefix sums with a proven error bound; else one
``(rows, scales, len)`` residual broadcast per block and one batched
reduction score every row.  Only the scales either pass cannot rule out are
rescored with ``np.dot``, so the chosen scale, ties included, is the
one-scale-at-a-time loop's.

No pass copies the weights up front: max|w| is ``max(w.max(), -w.min())``,
the bound pass normalizes its one sorted copy in place, and the other passes
normalize each block of weights as they score it.  So a search holds one
weight-sized array at most: that sort, or the row residual ``np.dot`` sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteWeight

# Largest n*m this package will enumerate (2**(n*m) table lines).
ENUM_BUDGET_BITS = 20

SEARCH_BLOCK_ELEMS = 1 << 16  # elements in one of choose_prescale's (scales, weights) blocks


def round_half_away(x):
    """Round to nearest integer with halves away from zero (symmetric in sign).

    ``x + copysign(0.5, x)`` rounds to the same magnitude as ``|x| + 0.5``, as
    round-to-nearest is sign-symmetric, so truncating it equals ``sign(x) *
    floor(|x| + 0.5)`` for every float, infinities and nan included.
    """
    return np.trunc(x + np.copysign(0.5, x))


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
        lo, hi = activation_range(self.qparams.m, True)
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


def narrowest(lo: int, hi: int, at_least=None) -> np.dtype:
    """Narrowest integer dtype that holds [lo, hi], signed at equal width, never narrower
    than ``at_least``.  A signed dtype holds x iff it holds -1 - x."""
    signed, unsigned = np.min_scalar_type(min(lo, -1 - hi)), np.min_scalar_type(hi)
    d = unsigned if lo >= 0 and unsigned.itemsize < signed.itemsize else signed
    return d if at_least is None else np.promote_types(d, at_least)


def _round_saturate(w, w_abs, scale, m: int, out=None) -> np.ndarray:
    """Float codes of ``w`` (``w_abs`` is ``np.abs(w)``) at a broadcast positive ``scale``:
    round half away, then saturate."""
    lo, hi = activation_range(m, True)
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


def quantization_error(weights, m: int, scale: float) -> float:
    """Total squared error of quantizing ``weights`` at the given scale."""
    w = np.asarray(weights, dtype=np.float64)
    codes = quantize_codes(w, m, scale)
    residual = w - scale * codes
    return float(np.dot(residual, residual))


def default_prescale_grid(weights, m: int, points: int = 64) -> np.ndarray:
    """Search grid for the pre-scale: log-spaced around the max-abs mapping.

    Spans max|w| / 2**(m-1) times [0.5, 2.0].  All-zero weights get the
    degenerate grid [1.0] (every scale is equally good there).  A
    ``(rows, len)`` matrix gets ``(rows, points)`` grids, 1.0s for a zero row.
    ValueError where max|w| is so small that the grid would start at 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows = w if w.ndim == 2 else w.reshape(1, -1)
    peak = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
    if w.ndim < 2 and peak[0] == 0.0:
        return np.array([1.0])
    # no zero-width row: np.linspace would round every row another way
    center = np.where(peak > 0.0, peak, 1.0) / (1 << (m - 1))
    low = 0.5 * center
    if not low.all():
        raise ValueError(f"max |w| {float(peak[low == 0.0][0])!r} leaves an m={m} pre-scale grid no "
                         f"positive scale: its lowest point, max|w| / 2**{m}, underflows to 0")
    grid = np.geomspace(low, 2.0 * center, points, axis=1)
    grid[peak == 0.0] = 1.0
    return grid if w.ndim == 2 else grid[0]


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

    The sort is the one weight-sized copy: normalized in place by 2**-e
    (exact and monotone, so still sorted), searched, then made its own prefix sum.
    """
    levels = 1 << (m - 1)
    p1 = np.concatenate(([0.0], w))  # p1[1:] is the sort, behind a leading 0
    v = p1[1:]
    v.sort()
    e = np.frexp(max(v[-1], -v[0]))[1]
    np.ldexp(v, -e, out=v)
    scaled = np.ldexp(grid, -e)
    k = np.arange(1, levels + 1)
    edge = (k - 0.5) * scaled[:, None]
    below = np.searchsorted(v, edge[:, :-1])  # per scale and edge: weights under +edge ...
    under = np.searchsorted(v, -edge, side="right")  # ... and at or under -edge
    zero = np.searchsorted(v, 0.0)
    s2 = np.dot(v, v)
    np.cumsum(p1, out=p1)  # p1[i]: the sum of the i smallest
    lin = (p1[-1] - p1[below]).sum(axis=1) - p1[under].sum(axis=1)
    quad = ((2 * k[:-1] - 1) * (v.size - below)).sum(axis=1) + ((2 * k - 1) * under).sum(axis=1)
    s1 = p1[-1] - 2.0 * p1[zero]
    approx = s2 - 2.0 * scaled * lin + scaled * scaled * quad
    # With u = eps/2, N = len(w), K = levels: the prefix and plain sums, in any
    # order, err by at most ~N u times the sum of their terms' magnitudes (so
    # the expansion by ~3(N + K) u spread), the exact pass's residuals and
    # np.dot by ~(N + 8) u (8 S2 + 2 N s**2), and a weight within rounding of
    # an edge by 2 u s (2|w| + s); 16 (N + K + 8) u spread covers all three,
    # and the 2**-1074 term covers underflow.
    spread = s2 + 2.0 * scaled * levels * s1 + scaled * scaled * (quad + v.size)
    delta = 16.0 * (v.size + levels + 8) * (np.finfo(np.float64).eps / 2 * spread + 2.0 ** -1074)
    # NaN-safe: a scale is dropped only when its lower bound clears some upper bound
    return grid[~(approx - delta > np.min(approx + delta))]


def _errors(w, e, m: int, scaled, exact: bool) -> np.ndarray:
    """(rows, points) squared errors of each row of ``w`` times 2**-e (``e`` per row)
    at its row of ``scaled``, summed with ``np.dot`` as in ``quantization_error`` if
    ``exact``, else in one batched reduction.  The residuals fill one buffer of
    SEARCH_BLOCK_ELEMS, or of one row where a row is longer, a block of columns at a
    time; each block of weights is normalized, into one reused buffer, as it is scored."""
    (rows, size), points = w.shape, scaled.shape[1]
    step_r = max(1, SEARCH_BLOCK_ELEMS // (points * size))
    step_p = min(points, max(1, SEARCH_BLOCK_ELEMS // size))
    buf = np.empty((min(step_r, rows), step_p, size))
    block = np.empty((len(buf), 1, min(size, SEARCH_BLOCK_ELEMS)))  # the normalized weights of one block
    errs = np.empty((rows, points))
    for r in range(0, rows, step_r):
        exp = -e[r:r + step_r, None, None]
        for p in range(0, points, step_p):
            s = scaled[r:r + step_r, p:p + step_p, None]
            res = buf[:len(s), :s.shape[1]]
            for c in range(0, size, SEARCH_BLOCK_ELEMS):
                wb = w[r:r + step_r, None, c:c + SEARCH_BLOCK_ELEMS]
                wc = np.ldexp(wb, exp, out=block[:wb.shape[0], :, :wb.shape[2]])
                rc = np.abs(wc, out=res[..., c:c + SEARCH_BLOCK_ELEMS])  # |wc|, rounded in place
                _round_saturate(wc, rc, s, m, out=rc)
                rc *= s
                np.subtract(wc, rc, out=rc)
            errs[r:r + step_r, p:p + step_p] = (
                [[np.dot(x, x) for x in row] for row in res] if exact else np.einsum("rpl,rpl->rp", res, res))
    return errs


def choose_prescale(weights, m: int, search_grid):
    """Pick the grid scale minimizing total squared quantization error.

    Ties break toward the smaller scale; all-zero weight vectors return the
    smallest grid scale.  1-d weights and grid return a float; ``(rows, len)``
    weights with ``(rows, points)`` grids return each row's pick.  Rows are
    searched normalized by a power of two, and the original grid point is
    returned.  A row's grid is shortlisted from sorted prefix sums
    (``_shortlist``) or one batched score, and the kept scales scored exactly.
    """
    one = np.ndim(weights) < 2
    w, grid = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (weights, search_grid))
    if w.ndim != 2 or grid.ndim != 2 or len(grid) != len(w):
        raise ValueError(f"need (rows, len) weights and (rows, points) grids, got {w.shape} and {grid.shape}")
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    peak = np.maximum(w.max(axis=1), -w.min(axis=1))  # nan if any weight of the row is
    if not np.isfinite(peak).all():
        raise NonFiniteWeight("weight vector contains nan/inf")
    grid = np.sort(grid, axis=1)
    if not grid.size or not np.all((grid > 0) & np.isfinite(grid)):
        raise ValueError("search grid must be non-empty, its scales positive and finite")
    # times 2**-e per row, max|w| lies in [0.5, 1): w**2 cannot overflow, and
    # every error scales by exactly 4**-e, so ties stay ties
    e = np.frexp(peak)[1]
    scaled = np.ldexp(grid, -e[:, None])
    pick = np.zeros(len(w), dtype=np.intp)  # all-zero rows and one-point grids take the smallest
    live, kept = np.flatnonzero(peak > 0.0) if grid.shape[1] > 1 else [], []
    if len(live) and bound_pass_pays(w.shape[1], m):
        kept = [np.searchsorted(grid[r], _shortlist(w[r], m, grid[r])) for r in live]
    elif len(live):
        errs = _errors(w, e, m, scaled, exact=False)[live]
        # Keep every scale whose np.dot error may be the minimum.  With u = eps/2
        # and N = len, any order of summing N non-negative products, rounded or
        # fused, errs by at most N u / (1 - N u) times the exact sum T, plus
        # U = N 2**-1074 of underflow.  So both sums lie in [(1 - g) T - U,
        # (1 + g) T + U], and np.dot's minimum has a batched error at most
        # r**2 min + (1 + r)**2 U, r = (1 + g) / (1 - g); g = (N + 2) u and 8 U
        # cover this test's own rounding.  NaN-safe: a nan keeps its whole row.
        g = (w.shape[1] + 2) * np.finfo(np.float64).eps / 2
        bound = errs.min(axis=1, keepdims=True) * ((1 + g) / (1 - g)) ** 2 + 8.0 * w.shape[1] * 2.0 ** -1074
        kept = [np.flatnonzero(row) for row in ~(errs > bound)]
    for r, keep in zip(live, kept):  # first exact minimum: the smaller scale
        i = np.argmin(_errors(w[r:r + 1], e[r:r + 1], m, scaled[r:r + 1, keep], exact=True)) if len(keep) > 1 else 0
        pick[r] = keep[i]
    best = grid[np.arange(len(w)), pick]
    return float(best[0]) if one else best
