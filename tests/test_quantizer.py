"""Quantizer behavior against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from muxnet import quantizer
from muxnet.errors import NonFiniteWeight
from muxnet.quantizer import (
    SEARCH_BLOCK_ELEMS,
    QParams,
    QuantizedWeightVector,
    activation_range,
    bound_pass_pays,
    choose_prescale,
    default_prescale_grid,
    narrowest,
    quantization_error,
    quantize_codes,
    round_half_away,
)


@pytest.mark.parametrize("lo, hi, at_least, want", [
    (0, 127, None, np.int8),  # signed at equal width
    (-128, 127, None, np.int8),
    (0, 255, None, np.uint8),
    (-1, 255, None, np.int16),
    (-129, 127, None, np.int16),
    (0, 65535, None, np.uint16),
    (0, 127, np.int16, np.int16),  # the floor the chunk sums take
    (0, 255, np.int16, np.int16),
    (-8, 7, np.int32, np.int32),  # the floor the keys take
    (0, 2**31 - 1, np.int32, np.int32),
    (0, 2**31, np.int32, np.int64),  # uint32 would do, but not at int32's floor
    (0, 2**31 - 1, None, np.int32),
    (-2**31, 2**31 - 1, None, np.int32),
    (-2**31 - 1, 0, None, np.int64),
    (-2**31, 2**31, None, np.int64),
    (0, 2**32 - 1, None, np.uint32),
    (-2**63, 2**63 - 1, None, np.int64),
])
def test_narrowest_picks_the_narrowest_holding_dtype(lo, hi, at_least, want):
    assert narrowest(lo, hi, at_least) == want


def test_narrowest_matches_a_brute_force_ladder():
    # the first dtype, narrowest first and signed before unsigned, whose range
    # holds [lo, hi] and at_least's range too
    ladder = [np.dtype(d) for d in (np.int8, np.uint8, np.int16, np.uint16,
                                    np.int32, np.uint32, np.int64, np.uint64)]
    edges = sorted({s * ((1 << b) + d) for b in (0, 6, 7, 8, 15, 16, 31, 32, 62)
                    for d in (-1, 0, 1) for s in (1, -1)} | {-(2**63), 2**63 - 1})
    for at_least in (None, np.int16, np.int32):
        floor = (np.iinfo(at_least).min, np.iinfo(at_least).max) if at_least else (0, 0)
        for i, lo in enumerate(edges):
            for hi in edges[i:]:
                want = next(d for d in ladder if np.iinfo(d).min <= min(lo, floor[0])
                            and max(hi, floor[1]) <= np.iinfo(d).max)
                assert narrowest(lo, hi, at_least) == want, (lo, hi, at_least)


def test_round_half_away_symmetry():
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49, 0.0])
    want = np.array([1, 2, 3, -1, -2, -3, 0, 0, 0])
    assert np.array_equal(round_half_away(x), want)


def test_round_half_away_equals_the_sign_floor_formula():
    # the sign * floor(|x| + 1/2) spelling it replaced, on edges and on random
    # floats and bit patterns: equal values, and the same sign but at -0.0
    edges = [0.0, 0.5, 2.5, 0.49999999999999994, 2.0**52 + 0.5, 2.0**51 + 0.5, 2.0**52 - 0.5,
             1.5, 5e-324, np.finfo(np.float64).max, np.inf, np.nan]
    rng = np.random.default_rng(1234)
    x = np.concatenate([edges, np.negative(edges),
                        rng.normal(size=4000) * 10.0 ** rng.uniform(-3, 17, size=4000),
                        rng.integers(-10**6, 10**6, size=2000) + 0.5,
                        rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)])
    old = np.sign(x) * np.floor(np.abs(x) + 0.5)
    got = round_half_away(x)
    assert np.array_equal(got, old, equal_nan=True)
    sign, want = np.signbit(got), np.signbit(old) | (x == 0) & np.signbit(x)  # -0.0 stays -0.0
    assert np.array_equal(sign[~np.isnan(x)], want[~np.isnan(x)])


def test_quantize_codes_rounding_and_clamp():
    codes = quantize_codes(np.array([0.74, 0.75, -0.75, 10.0, -10.0]), m=3, scale=0.5)
    assert codes.tolist() == [1, 2, -2, 3, -4]


def test_quantize_weights_builds_vector():
    # quantized codes and their scale make a weight vector, as the CLI builds one
    qp = QParams(m=3, scale=1.0)
    codes = quantize_codes(np.array([1.0, -2.0]), qp.m, qp.scale)
    qwv = QuantizedWeightVector(codes=tuple(int(c) for c in codes), qparams=qp)
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


def test_quantized_weight_vector_refuses_no_codes():
    with pytest.raises(ValueError, match="weight vector must be non-empty"):
        QuantizedWeightVector(codes=(), qparams=QParams(m=3, scale=1.0))


@pytest.mark.parametrize("scale", [0.0, -1.0, np.array([1.0, 0.0])])
def test_quantize_codes_refuses_a_non_positive_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive"):
        quantize_codes(np.ones((2, 3)), m=3, scale=np.reshape(scale, (-1, 1)))


@pytest.mark.parametrize("weights, grid, match", [
    (np.ones((2, 3)), np.ones((3, 4)), "need \\(rows, len\\) weights"),  # one grid per row
    (np.ones((1, 2, 3)), np.ones((1, 4)), "need \\(rows, len\\) weights"),  # 3-d weights
    ([], [1.0], "weights must be non-empty"),
    ([0.5], [], "search grid must be non-empty"),
    ([0.5], [1.0, 0.0], "its scales positive and finite"),
    ([0.5], [1.0, np.inf], "its scales positive and finite"),
])
def test_choose_prescale_refuses_bad_shapes_empty_weights_and_bad_grids(weights, grid, match):
    with pytest.raises(ValueError, match=match):
        choose_prescale(weights, 3, grid)


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
    lo, hi = activation_range(m, True)
    for s in np.ravel(grid):
        r = w - s * np.clip(round_half_away(w / s), lo, hi)
        assert quantization_error(w, m, s) == float(np.dot(r, r)), (w, m, s)


@pytest.mark.parametrize("make", [
    _halves, _saturating, _all_negative, _constant, _single, _with_zeros, _unsorted_duplicates,
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


def test_choose_prescale_is_scale_invariant(monkeypatch):
    # the same weights and grid at any magnitude pick the same grid point; at
    # 1e300 the squared residuals would overflow and at 1e-300 underflow, so
    # every scale would tie and the smallest win
    m, rng = 5, np.random.default_rng(909)
    w = rng.normal(size=400)
    grid = default_prescale_grid(w, m, 64)
    assert bound_pass_pays(w.size, m)
    for shortlist in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(quantizer, "bound_pass_pays", lambda size, m: shortlist)
            want = int(np.searchsorted(grid, choose_prescale(w, m, grid)))
            assert 0 < want < grid.size - 1, shortlist  # an interior optimum, not a tie-break
            for factor in (2.0 ** 600, 2.0 ** -600, 1e300, 1e-300):
                scaled = grid * factor
                assert choose_prescale(w * factor, m, scaled) == scaled[want], (shortlist, factor)


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


def test_exact_rescoring_of_a_long_row_holds_its_residual_and_one_block():
    # a row of 162,304 weights on the code grid of 1/16, 1/8 and 1/4 scores 0 at all
    # three, so all three reach the exact pass, which sums each scale's row-long
    # residual (1.30 MB) and normalizes the weights a block at a time into one reused
    # block (0.52 MB): 1.83 MB measured, 2.36 MB with a fresh block per column block
    m, grid = 5, np.array([0.0625, 0.125, 0.25, 0.3])
    w = 0.25 * np.random.default_rng(912).integers(-3, 4, size=162_304)
    assert w.size > 2 * SEARCH_BLOCK_ELEMS and bound_pass_pays(w.size, m)
    assert np.array_equal(quantizer._shortlist(w, m, grid), grid[:3])
    tracemalloc.start()
    try:
        pick = choose_prescale(w, m, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pick == 0.0625
    assert peak <= 1_900_000


def assert_rows_match_the_scalar_loop(monkeypatch, w, m, grids):
    want = [scalar_choose_prescale(row, m, grid) for row, grid in zip(w, grids)]
    for shortlist in (True, False):  # both sides of the size rule, whatever the length
        with monkeypatch.context() as patch:
            patch.setattr(quantizer, "bound_pass_pays", lambda size, m: shortlist)
            got = choose_prescale(w, m, grids)
            assert got.shape == (len(w),) and got.tolist() == want, (m, shortlist)


def _stacked(make, rng, m, rows=6):
    """A (rows, len) matrix of a generator's vectors and its (rows, points) grids,
    each tiled to the longest; row 2 is all zero among live rows."""
    pairs = [make(rng, m) for _ in range(rows)]
    size, points = max(np.size(w) for w, _ in pairs), max(np.size(g) for _, g in pairs)
    w = np.stack([np.resize(np.asarray(w, dtype=np.float64), size) for w, _ in pairs])
    w[2] = 0.0
    return w, np.stack([np.resize(np.ravel(g), points) for _, g in pairs])


@pytest.mark.parametrize("make", [
    _halves, _saturating, _all_negative, _constant, _single, _with_zeros, _unsorted_duplicates,
])
def test_batched_search_matches_the_scalar_loop_row_by_row(monkeypatch, make):
    rng = np.random.default_rng(910)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        w, grids = _stacked(make, rng, m)
        assert_rows_match_the_scalar_loop(monkeypatch, w, m, grids)


def test_batched_search_normalizes_each_row(monkeypatch):
    # rows 2**1200 and 1e600 apart: one exponent for the whole matrix would
    # underflow the small rows' residuals, so their scales would tie
    m, rng = 5, np.random.default_rng(909)
    w = rng.normal(size=400)
    grid = default_prescale_grid(w, m, 64)
    factors = np.array([1.0, 2.0 ** 600, 2.0 ** -600, 1e300, 1e-300, 0.0])[:, None]
    for shortlist in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(quantizer, "bound_pass_pays", lambda size, m: shortlist)
            want = int(np.searchsorted(grid, choose_prescale(w, m, grid)))
            assert 0 < want < grid.size - 1, shortlist  # an interior optimum, not a tie-break
            grids = np.where(factors > 0, grid * factors, grid)  # the zero row keeps the x1 grid
            got = choose_prescale(w * factors, m, grids)
            assert got.tolist() == grids[:-1, want].tolist() + [grid[0]], shortlist


def test_batched_search_with_one_point_grids(monkeypatch):
    rng = np.random.default_rng(911)
    w = rng.normal(size=(5, 12))
    w[1] = 0.0
    grids = np.abs(rng.normal(size=(5, 1)))
    assert np.array_equal(choose_prescale(w, 4, grids), grids[:, 0])
    assert_rows_match_the_scalar_loop(monkeypatch, w, 4, grids)


def test_batched_search_matches_the_scalar_loop_across_blocks(monkeypatch):
    rng = np.random.default_rng(912)
    m = 10
    for rows, size in ((64, 50), (2, 5000)):  # many rows per block; several blocks per row
        w = rng.normal(size=(rows, size))
        w[:, :8] = (rng.integers(-16, 16, size=(rows, 8)) + 0.5) * 0.125  # exact halves at scale 0.125
        w[1] = 0.0
        grids = np.concatenate([default_prescale_grid(w, m, 63), np.full((rows, 1), 0.125)], axis=1)
        assert not bound_pass_pays(size, m) and w.size * grids.shape[1] >= 3 * SEARCH_BLOCK_ELEMS
        assert_rows_match_the_scalar_loop(monkeypatch, w, m, grids)


def test_exact_rescoring_breaks_a_tie_the_batched_pass_cannot_see(monkeypatch):
    # Each pair of weights 4 + x and 3 + x, x in (-1, 0), has residuals
    # (x, x + 1) at scale 2 and (x + 1, x) at scale 3, all exact, so the
    # squared residuals at the two scales are one multiset in two orders: the
    # exact errors tie, and each reduction breaks the tie by its own rounding.
    m, rng = 4, np.random.default_rng(914)
    x = -rng.random((32, 64))
    w = rng.choice([-1.0, 1.0], size=(32, 1)) * np.concatenate([4.0 + x, 3.0 + x], axis=1)
    w = np.take_along_axis(w, np.argsort(rng.random(w.shape), axis=1), axis=1)
    for s, t in ((2.0, 3.0), (3.0, 2.0)):
        r_s = w - s * quantize_codes(w, m, s)
        r_t = w - t * quantize_codes(w, m, t)
        assert np.array_equal(np.sort(r_s ** 2, axis=1), np.sort(r_t ** 2, axis=1))
    errs = np.array([[quantization_error(row, m, s) for s in (2.0, 3.0)] for row in w])
    assert (errs[:, 0] < errs[:, 1]).any() and (errs[:, 0] > errs[:, 1]).any()
    grids = np.stack([rng.permutation([2.0, 3.0, 6.0]) for _ in w])
    assert_rows_match_the_scalar_loop(monkeypatch, w, m, grids)


def test_2d_default_grid_equals_the_stacked_1d_grids():
    rng = np.random.default_rng(913)
    for points in (1, 5, 64):
        for m in (2, 5, 10):
            w = rng.normal(size=(12, 9)) * 10.0 ** rng.uniform(-100, 100, size=(12, 1))
            w[[3, 7]] = 0.0  # zero rows among live rows
            grids = default_prescale_grid(w, m, points)
            assert grids.shape == (12, points)
            for row, grid in zip(w, grids):
                assert np.array_equal(grid, default_prescale_grid(row, m, points) if row.any() else np.ones(points))
