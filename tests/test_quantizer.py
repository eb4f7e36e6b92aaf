"""Quantizer behavior against brute-force oracles."""

import itertools

import numpy as np
import pytest

from muxnet import quantizer
from muxnet.errors import EnumerationTooLarge, NonFiniteWeight
from muxnet.quantizer import (
    SEARCH_BLOCK_ELEMS,
    QParams,
    QuantizedWeightVector,
    bound_pass_pays,
    choose_prescale,
    code_range,
    default_prescale_grid,
    effective_output_levels,
    level_gap_stats,
    quantization_error,
    quantize_codes,
    quantize_weights,
    round_half_away,
)


def brute_force_levels(n: int, m: int) -> np.ndarray:
    """Oracle: every subset sum of every code vector, by sheer enumeration."""
    lo, hi = code_range(m)
    levels = set()
    for codes in itertools.product(range(lo, hi + 1), repeat=n):
        for key in range(1 << n):
            levels.add(sum(c for i, c in enumerate(codes) if (key >> i) & 1))
    return np.array(sorted(levels))


def test_round_half_away_symmetry():
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49, 0.0])
    want = np.array([1, 2, 3, -1, -2, -3, 0, 0, 0])
    assert np.array_equal(round_half_away(x), want)


def test_quantize_codes_rounding_and_clamp():
    codes = quantize_codes(np.array([0.74, 0.75, -0.75, 10.0, -10.0]), m=3, scale=0.5)
    assert codes.tolist() == [1, 2, -2, 3, -4]


def test_quantize_weights_builds_vector():
    qwv = quantize_weights([1.0, -2.0], m=3, scale=1.0)
    assert isinstance(qwv, QuantizedWeightVector)
    assert qwv.codes == (1, -2)
    assert qwv.n == 2 and qwv.m == 3 and qwv.scale == 1.0


def test_quantize_rejects_nonfinite():
    with pytest.raises(NonFiniteWeight):
        quantize_codes(np.array([np.nan]), m=3, scale=1.0)
    with pytest.raises(NonFiniteWeight):
        choose_prescale([np.inf], 3, [1.0])


def test_qparams_validation():
    with pytest.raises(ValueError):
        QParams(m=1, scale=1.0)
    with pytest.raises(ValueError):
        QParams(m=3, scale=0.0)


def test_code_out_of_range_rejected():
    with pytest.raises(ValueError):
        QuantizedWeightVector(codes=(4,), qparams=QParams(m=3, scale=1.0))


def test_default_grid_spans_half_to_double():
    w = [0.3, -0.7]
    grid = default_prescale_grid(w, m=3, points=64)
    center = 0.7 / 4
    assert grid.size == 64
    assert np.isclose(grid[0], 0.5 * center)
    assert np.isclose(grid[-1], 2.0 * center)
    assert np.array_equal(default_prescale_grid([0.0, 0.0], m=3), [1.0])


def test_choose_prescale_minimizes_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.normal(size=4)
        grid = default_prescale_grid(w, m=4)
        best = choose_prescale(w, 4, grid)
        best_err = quantization_error(w, 4, best)
        # oracle: evaluate every grid point independently
        errs = [quantization_error(w, 4, s) for s in grid]
        assert best_err <= min(errs) + 1e-15


def test_choose_prescale_tie_breaks_smaller():
    # 1.0 and 0.5 both represent [1.0, -1.0] exactly at m=3 (0.25 would
    # need code +4, which clamps to +3), so the tie goes to 0.5
    s = choose_prescale([1.0, -1.0], 3, [1.0, 0.5, 0.25])
    assert s == 0.5


def test_choose_prescale_all_zero_returns_smallest():
    assert choose_prescale([0.0, 0.0], 3, [0.4, 0.2, 0.9]) == 0.2


def scalar_choose_prescale(weights, m, search_grid):
    """Oracle: ``quantization_error`` at each sorted grid point; the first minimum wins."""
    w = np.asarray(weights, dtype=np.float64)
    grid = sorted(float(s) for s in np.ravel(search_grid))
    if not np.any(w):
        return grid[0]
    errs = [quantization_error(w, m, s) for s in grid]
    return grid[errs.index(min(errs))]


def _dyadic_scale(rng):
    """A scale with few significant bits, so ``(k + 0.5) * s / s`` is exactly ``k + 0.5``."""
    return int(rng.integers(1, 8)) / float(1 << int(rng.integers(0, 6)))


def _halves(rng, m):
    s = _dyadic_scale(rng)
    k = rng.integers(-(1 << (m - 1)) - 2, (1 << (m - 1)) + 2, size=int(rng.integers(1, 24)))
    grid = [s, 0.5 * s, 0.75 * s, 1.5 * s, 2.0 * s, 3.0 * s]
    return (k + 0.5) * s, grid


def _saturating(rng, m):
    w = rng.normal(size=int(rng.integers(1, 24)))
    w[rng.integers(0, w.size)] *= 50.0  # one outlier pins the top of the code range
    return w, 0.1 * default_prescale_grid(w, m, 16)


def _all_negative(rng, m):
    w = -np.abs(rng.normal(size=int(rng.integers(1, 24))))
    return w, default_prescale_grid(w, m, 16)


def _constant(rng, m):
    w = np.full(int(rng.integers(1, 24)), rng.normal())
    return w, default_prescale_grid(w, m, 16)


def _single(rng, m):
    w = rng.normal(size=1)
    return w, default_prescale_grid(w, m, 16)


def _with_zeros(rng, m):
    w = rng.normal(size=int(rng.integers(2, 24)))
    w[rng.random(w.size) < 0.5] = 0.0
    return w, default_prescale_grid(w, m, 16)


def _overflowing(rng, m):
    # w**2 overflows: every error is inf, so the first grid scale wins
    w = rng.normal(size=int(rng.integers(1, 24))) * 1e200
    return w, default_prescale_grid(w, m, 16)


def _unsorted_duplicates(rng, m):
    # w sits on the code grid at both s and s/2, so those two tie at zero error
    s = _dyadic_scale(rng)
    w = s * rng.integers(-(1 << (m - 2)), 1 << (m - 2), size=int(rng.integers(1, 24)))
    grid = np.concatenate([default_prescale_grid(w, m, 8), [2.0 * s, s, 0.5 * s, s, 0.75 * s, 2.0 * s]])
    return w, rng.permutation(grid)


def assert_matches_the_scalar_loop(monkeypatch, w, m, grid):
    want = scalar_choose_prescale(w, m, grid)
    for shortlist in (True, False):  # both sides of the size rule, whatever the length
        with monkeypatch.context() as patch:
            patch.setattr(quantizer, "bound_pass_pays", lambda size, m: shortlist)
            assert choose_prescale(w, m, grid) == want, (w, m, grid, shortlist)
    # the loop's errors follow the rounding rule as ``round_half_away`` spells it
    # out, so a broken rounding helper cannot pass by breaking the oracle too
    lo, hi = code_range(m)
    for s in np.ravel(grid):
        r = w - s * np.clip(round_half_away(w / s), lo, hi)
        assert quantization_error(w, m, s) == float(np.dot(r, r)), (w, m, s)


@pytest.mark.parametrize("make", [
    _halves, _saturating, _all_negative, _constant, _single, _with_zeros, _unsorted_duplicates,
    pytest.param(_overflowing, marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
])
def test_choose_prescale_matches_the_scalar_grid_loop(monkeypatch, make):
    rng = np.random.default_rng(906)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        w, grid = make(rng, m)
        assert_matches_the_scalar_loop(monkeypatch, w, m, grid)


def test_choose_prescale_matches_the_scalar_grid_loop_across_blocks(monkeypatch):
    rng = np.random.default_rng(907)
    w = rng.normal(size=SEARCH_BLOCK_ELEMS // 4 + 1)  # 3 scales per block
    w[:64] = (rng.integers(-16, 16, size=64) + 0.5) * 0.125  # exact halves at scale 0.125
    grid = np.concatenate([default_prescale_grid(w, 5, 9), [0.125]])
    assert -(-grid.size // (SEARCH_BLOCK_ELEMS // w.size)) >= 3
    for m in (4, 5, 6):
        assert_matches_the_scalar_loop(monkeypatch, w, m, grid)


def test_exact_rescoring_breaks_a_tie_the_bound_pass_cannot_see():
    # Every weight sits on the code grid of both s and 2s, or on an edge
    # (k - 1/2) s, which is a quarter step off the code grid of 2s.  So each
    # weight's residual is 0 at both scales or +-s/2 at both: their exact
    # errors are equal and the tie goes to s.  s has 28 significant bits, so
    # the prefix-sum expansion rounds, and differently at each scale.
    m = 4
    for seed in range(8):
        rng = np.random.default_rng([908, seed])
        s = 0.125 + int(rng.integers(1, 1 << 24)) * 2.0 ** -30
        w = 2 * s * rng.integers(-4, 4, size=4096)
        edge = rng.random(w.size) < 0.25
        k = rng.integers(1, 8, size=w.size)
        w[edge] = ((k - 0.5) * s * rng.choice([-1.0, 1.0], size=w.size))[edge]
        grid = rng.permutation(np.array([0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0]) * s)
        assert bound_pass_pays(w.size, m)
        assert quantization_error(w, m, s) == quantization_error(w, m, 2 * s)
        assert np.array_equal(quantizer._shortlist(w, m, np.sort(grid)), [s, 2 * s])
        assert choose_prescale(w, m, grid) == scalar_choose_prescale(w, m, grid) == s


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4)])
def test_effective_levels_match_brute_force(n, m):
    oracle = brute_force_levels(n, m)  # computed first, independently
    got = effective_output_levels(n, m)
    assert np.array_equal(got, oracle)


def test_effective_levels_budget():
    with pytest.raises(EnumerationTooLarge):
        effective_output_levels(4, 6)


def test_level_gap_stats_denser_than_uniform():
    stats = level_gap_stats(2, 3)
    # reachable range [-8, 6] in unit steps: finer than the 8-level m-bit grid
    assert stats.mean_gap == 1.0
    assert stats.ratio < 1.0


def test_level_gap_stats_matches_levels():
    levels = effective_output_levels(2, 4)
    stats = level_gap_stats(2, 4)
    span = levels[-1] - levels[0]
    assert np.isclose(stats.mean_gap, span / (len(levels) - 1))
    assert np.isclose(stats.uniform_gap, span / 15)
