"""Gaussian kernel smoothing: one (sigma_x, sigma_y) smoother, fallbacks,
bandwidth selection."""

import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmargin import kernel
from rankmargin.data import fold_splits, rotate_arrays
from rankmargin.errors import DataError, DegeneratePredictionWarning, ParameterError
from rankmargin.kernel import (
    DEFAULT_SIGMA_GRID,
    DEFAULT_SIGMA_X_GRID,
    DEFAULT_SIGMA_Y_GRID,
    KernelSmootherSpec,
    anisotropic_smoother,
    isotropic_smoother,
    predict_kernel,
    predict_kernel_arrays,
    select_aniso_cv,
    select_sigma_loo,
)
from rankmargin.synth import generate_synthetic
from util import make_dataset

import oracles


def test_default_grids():
    assert len(DEFAULT_SIGMA_GRID) == 40
    assert DEFAULT_SIGMA_GRID[0] == pytest.approx(1.0)
    assert DEFAULT_SIGMA_GRID[-1] == pytest.approx(200.0)
    ratios = np.diff(np.log(np.array(DEFAULT_SIGMA_GRID)))
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    assert DEFAULT_SIGMA_X_GRID == tuple(float(v) for v in range(10, 101, 10))
    assert DEFAULT_SIGMA_Y_GRID == tuple(float(v) for v in range(2, 41, 2))


def test_single_training_point():
    data = make_dataset([12], [30], [7.0])
    iso = isotropic_smoother(data, 5.0)
    aniso = anisotropic_smoother(data, 40.0, 8.0)
    for spec in (iso, aniso):
        assert predict_kernel(spec, 12.0, 30.0) == 7.0
        assert predict_kernel(spec, 50.0, 3.0) == 7.0


def test_two_equidistant_marks_average():
    data = make_dataset([1, 5], [1, 5], [4.0, 10.0])
    assert predict_kernel(isotropic_smoother(data, 2.0), 3.0, 3.0) == pytest.approx(7.0)
    assert predict_kernel(anisotropic_smoother(data, 30.0, 4.0), 3.0, 3.0) == pytest.approx(7.0)


def test_matches_direct_sum_reference():
    rng = np.random.default_rng(40)
    worst = 0.0
    for trial in range(5):
        data = generate_synthetic(int(rng.integers(80, 301)), seed=trial + 200, rank_max=80)
        road = list(data.road_ranks)
        home = list(data.home_ranks)
        movs = list(data.movs)
        sigma = float(rng.uniform(10, 50))
        sx = float(rng.uniform(15, 60))
        sy = float(rng.uniform(4, 20))
        iso = isotropic_smoother(data, sigma)
        aniso = anisotropic_smoother(data, sx, sy)
        for _ in range(20):
            qr = float(rng.uniform(1, 80))
            qh = float(rng.uniform(1, 80))
            got = predict_kernel(iso, qr, qh)
            want = oracles.kernel_predict_reference(road, home, movs, qr, qh, sigma=sigma)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            got = predict_kernel(aniso, qr, qh)
            want = oracles.kernel_predict_reference(
                road, home, movs, qr, qh, sigma_x=sx, sigma_y=sy
            )
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-12


def test_equal_bandwidths_reduce_to_isotropic():
    # the 45 degree rotation is an isometry, so sigma_x == sigma_y == s must
    # reproduce the isotropic smoother with sigma = s
    data = generate_synthetic(400, seed=41, rank_max=100)
    iso = isotropic_smoother(data, 17.0)
    aniso = anisotropic_smoother(data, 17.0, 17.0)
    rng = np.random.default_rng(42)
    qr = rng.uniform(1, 100, 100)
    qh = rng.uniform(1, 100, 100)
    a = predict_kernel_arrays(iso, qr, qh)
    b = predict_kernel_arrays(aniso, qr, qh)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_arrays_match_scalar():
    data = generate_synthetic(200, seed=43, rank_max=60)
    for spec in (isotropic_smoother(data, 9.0), anisotropic_smoother(data, 25.0, 6.0)):
        rng = np.random.default_rng(44)
        qr = rng.uniform(1, 60, 30)
        qh = rng.uniform(1, 60, 30)
        batch = predict_kernel_arrays(spec, qr, qh)
        singles = [predict_kernel(spec, r, h) for r, h in zip(qr, qh)]
        np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=1e-13)


def test_huge_bandwidth_approaches_global_mean():
    data = generate_synthetic(300, seed=45, rank_max=50)
    mean = float(data.movs.mean())
    assert predict_kernel(isotropic_smoother(data, 1e6), 25.0, 25.0) == pytest.approx(
        mean, rel=1e-6
    )
    assert predict_kernel(anisotropic_smoother(data, 1e6, 1e6), 25.0, 25.0) == pytest.approx(
        mean, rel=1e-6
    )


def test_prediction_is_convex_combination():
    data = generate_synthetic(150, seed=46, rank_max=40)
    spec = isotropic_smoother(data, 3.0)
    lo, hi = float(data.movs.min()), float(data.movs.max())
    rng = np.random.default_rng(47)
    preds = predict_kernel_arrays(spec, rng.uniform(1, 60, 50), rng.uniform(1, 60, 50))
    assert np.all(preds >= lo - 1e-9) and np.all(preds <= hi + 1e-9)


def test_continuity_in_query():
    data = generate_synthetic(200, seed=48, rank_max=50)
    spec = isotropic_smoother(data, 8.0)
    delta = 1e-6
    for r, h in [(10.0, 40.0), (25.0, 25.0), (49.0, 2.0)]:
        a = predict_kernel(spec, r, h)
        b = predict_kernel(spec, r + delta, h)
        assert abs(b - a) <= 1e-3


def test_far_query_falls_back_to_training_mark():
    data = make_dataset([1, 2, 3], [3, 2, 1], [5.0, -4.0, 9.0])
    spec = isotropic_smoother(data, 10.0)
    with pytest.warns(DegeneratePredictionWarning):
        got = predict_kernel(spec, 1e200, 1e200)
    assert got in {5.0, -4.0, 9.0}
    with pytest.warns(DegeneratePredictionWarning):
        batch = predict_kernel_arrays(spec, [2.0, 1e200], [2.0, 1e200])
    assert np.isfinite(batch).all()
    assert batch[1] == got


def test_smoother_validation():
    data = generate_synthetic(10, seed=49, rank_max=10)
    with pytest.raises(ParameterError):
        isotropic_smoother(data, 0.0)
    with pytest.raises(ParameterError):
        anisotropic_smoother(data, 10.0, -1.0)
    empty = data.subset(np.array([], dtype=int))
    with pytest.raises(DataError):
        isotropic_smoother(empty, 5.0)
    with pytest.raises(DataError):
        anisotropic_smoother(empty, 5.0, 5.0)


def test_far_queries_warn_once_with_count():
    data = make_dataset([1, 2, 3], [3, 2, 1], [5.0, -4.0, 9.0])
    spec = anisotropic_smoother(data, 10.0, 4.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        preds = predict_kernel_arrays(spec, [2.0, 1e200, 3e200, 1e300], [2.0, 1e200, 1.0, 1e300])
    assert np.isfinite(preds).all()
    assert len(caught) == 1
    assert issubclass(caught[0].category, DegeneratePredictionWarning)
    assert str(caught[0].message).startswith("3 of 4 kernel predictions fell back")


def test_repeated_far_queries_count_per_query():
    # the four far queries share one distinct pair but are four fallbacks
    data = make_dataset([1, 2, 3, 3], [3, 2, 1, 1], [5.0, -4.0, 9.0, 1.0])
    spec = isotropic_smoother(data, 10.0)
    qr = [2.0, 1e200, 1e200, 2.0, 1e200, 1e200]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        preds = predict_kernel_arrays(spec, qr, qr)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("4 of 6 kernel predictions fell back")
    # the first game at the nearest pair (every pair ties at inf: the first)
    assert preds[1] == preds[2] == preds[4] == preds[5] == 5.0
    assert preds[0] == preds[3]


def test_ordinary_queries_do_not_warn():
    data = generate_synthetic(50, seed=56, rank_max=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict_kernel_arrays(isotropic_smoother(data, 4.0), [1.0, 20.0], [20.0, 1.0])
        select_sigma_loo(data, [2.0, 8.0])
        select_aniso_cv(data, [10.0], [2.0, 4.0], folds=3, seed=0)


def test_isotropic_is_equal_bandwidths():
    data = generate_synthetic(40, seed=57, rank_max=20)
    iso = isotropic_smoother(data, 6.5)
    assert (iso.sigma_x, iso.sigma_y) == (6.5, 6.5)
    same = KernelSmootherSpec(data.road_ranks, data.home_ranks, data.movs, 6.5, 6.5)
    assert predict_kernel(iso, 3.5, 17.0) == predict_kernel(same, 3.5, 17.0)


_GOOD = ([1, 4, 9], [2, 2, 7], [3.0, -1.0, 8.0])


@pytest.mark.parametrize(
    "road, home, movs, sigmas, error",
    [
        (*_GOOD, (float("nan"), 5.0), ParameterError),
        (*_GOOD, (5.0, float("inf")), ParameterError),
        (*_GOOD, (0.0, 5.0), ParameterError),
        (*_GOOD, (5.0, -2.0), ParameterError),
        (*_GOOD, (1e-200, 5.0), ParameterError),
        ([1.7, 4.7, 9.7], *_GOOD[1:], (5.0, 5.0), DataError),
        ([1, 4, float("nan")], *_GOOD[1:], (5.0, 5.0), DataError),
        (_GOOD[0], [2, 0, 7], _GOOD[2], (5.0, 5.0), DataError),
        (*_GOOD[:2], [3.0, float("inf"), 8.0], (5.0, 5.0), DataError),
        (*_GOOD[:2], [3.0, -1.0], (5.0, 5.0), DataError),
        ([], [], [], (5.0, 5.0), DataError),
    ],
    ids=[
        "nan-sigma", "inf-sigma", "zero-sigma", "negative-sigma", "underflowing-sigma",
        "fractional-rank",
        "nan-rank", "zero-rank", "inf-margin", "short-margins", "empty",
    ],
)
def test_array_constructor_validation(road, home, movs, sigmas, error):
    with pytest.raises(error):
        KernelSmootherSpec(road, home, movs, *sigmas)


@st.composite
def _training(draw):
    n = draw(st.integers(2, 30))
    ranks = st.lists(st.integers(1, 40), min_size=n, max_size=n)
    marks = st.lists(st.floats(-40, 40, allow_nan=False), min_size=n, max_size=n)
    queries = st.lists(st.floats(0.5, 40.5, allow_nan=False), min_size=4, max_size=4)
    return (
        np.array(draw(ranks), dtype=float),
        np.array(draw(ranks), dtype=float),
        np.array(draw(marks)),
        np.array(draw(marks)),
        (draw(st.floats(0.5, 60.0)), draw(st.floats(0.5, 60.0))),
        np.array(draw(queries)),
        np.array(draw(queries)),
    )


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(_training(), st.randoms(use_true_random=False))
def test_invariant_to_permuting_training_games(training, rnd):
    road, home, movs, _, sigmas, qr, qh = training
    order = list(range(len(movs)))
    rnd.shuffle(order)
    a = predict_kernel_arrays(KernelSmootherSpec(road, home, movs, *sigmas), qr, qh)
    b = predict_kernel_arrays(
        KernelSmootherSpec(road[order], home[order], movs[order], *sigmas), qr, qh
    )
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def _weighted_reference(road, home, movs, weights, sigmas, qr, qh):
    # per-game Nadaraya-Watson with game weights, relative to the nearest game
    x, y = rotate_arrays(road, home)
    out = []
    for r, h in zip(qr, qh):
        x0, y0 = rotate_arrays(r, h)
        q = ((x - x0) / sigmas[0]) ** 2 + ((y - y0) / sigmas[1]) ** 2
        w = weights * np.exp(-(q - q.min()) / 2)
        out.append(math.fsum(w * movs) / math.fsum(w))
    return np.array(out)


@_PROPERTY
@given(_training(), st.data())
def test_duplicated_game_is_count_weight_two(training, data):
    road, home, movs, _, sigmas, qr, qh = training
    dup = np.array(data.draw(st.lists(st.integers(0, len(movs) - 1), max_size=len(movs))), dtype=int)
    spec = KernelSmootherSpec(
        np.append(road, road[dup]), np.append(home, home[dup]), np.append(movs, movs[dup]), *sigmas
    )
    weights = np.ones(len(movs))
    np.add.at(weights, dup, 1.0)
    want = _weighted_reference(road, home, movs, weights, sigmas, qr, qh)
    np.testing.assert_allclose(predict_kernel_arrays(spec, qr, qh), want, rtol=0, atol=1e-12)


@_PROPERTY
@given(_training(), st.floats(-3, 3), st.floats(-3, 3))
def test_linear_in_margins(training, alpha, beta):
    road, home, y1, y2, sigmas, qr, qh = training
    p1 = predict_kernel_arrays(KernelSmootherSpec(road, home, y1, *sigmas), qr, qh)
    p2 = predict_kernel_arrays(KernelSmootherSpec(road, home, y2, *sigmas), qr, qh)
    mixed = predict_kernel_arrays(
        KernelSmootherSpec(road, home, alpha * y1 + beta * y2, *sigmas), qr, qh
    )
    np.testing.assert_allclose(mixed, alpha * p1 + beta * p2, rtol=0, atol=1e-9)


class TestIsotropicSelection:
    # duplicated clusters on a ring with an off-center middle point: its
    # leave-one-out error falls as sigma grows (the ring marks average out)
    # before cross-cluster contamination takes over
    ROAD = [30, 30, 90, 90, 60, 60, 60, 60, 60]
    HOME = [60, 60, 60, 60, 30, 30, 90, 90, 61]
    MOVS = [-10.0, -10.0, 10.0, 10.0, 10.0, 10.0, -10.0, -10.0, 0.0]
    GRID = [2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0]

    def test_loo_curve_matches_refit_oracle(self):
        data = make_dataset(self.ROAD, self.HOME, self.MOVS)
        best, curve = select_sigma_loo(data, self.GRID)
        for sigma, got in curve:
            want = oracles.kernel_loo_rmse_reference(self.ROAD, self.HOME, self.MOVS, sigma)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("sigma", [1e-3, 0.05, 1.0])
    def test_loo_on_replicated_pairs_matches_refit_oracle(self, sigma):
        # every game shares its pair with others, so the own-pair rest carries
        # the prediction at small sigma, where other pairs' weights underflow
        rng = np.random.default_rng(58)
        cells = [(3, 4), (3, 5), (4, 4), (10, 2), (1, 1), (7, 9)]
        pairs = [cell for cell, k in zip(cells, [7, 2, 3, 4, 2, 6]) for _ in range(k)]
        road, home = (list(axis) for axis in zip(*rng.permutation(pairs)))
        movs = list(rng.integers(-30, 31, len(road)).astype(float))
        _, curve = select_sigma_loo(make_dataset(road, home, movs), [sigma])
        want = oracles.kernel_loo_rmse_reference(road, home, movs, sigma)
        assert curve[0][1] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_loo_overflow_fallback_skips_the_left_out_game(self):
        # game 0 is alone, and every other pair is at an overflowing distance:
        # it takes the first margin at the next pair, not its own margin
        data = make_dataset([10**160, 1, 1, 2], [1, 1, 1, 2], [100.0, 4.0, 6.0, 8.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore", RuntimeWarning)
            warnings.simplefilter("default", DegeneratePredictionWarning)
            _, curve = select_sigma_loo(data, [1.0])
        assert len(caught) == 1
        assert str(caught[0].message).startswith("1 of 4 kernel predictions fell back")
        w = math.exp(-1.0)  # the pairs (1, 1) and (2, 2) are sqrt(2) apart
        preds = [4.0, (6.0 + 8.0 * w) / (1.0 + w), (4.0 + 8.0 * w) / (1.0 + w), 5.0]
        err = np.subtract(preds, data.movs)
        assert curve[0][1] == pytest.approx(math.sqrt(err @ err / 4), rel=1e-13)

    def test_loo_curve_dips_once(self):
        data = make_dataset(self.ROAD, self.HOME, self.MOVS)
        best, curve = select_sigma_loo(data, self.GRID)
        signs = np.sign(np.diff([r for _, r in curve]))
        assert signs[0] == -1
        assert signs[-1] == 1
        flips = np.flatnonzero(np.diff(signs) != 0)
        assert len(flips) == 1
        assert best == 8.0

    def test_singleton_grid(self):
        data = generate_synthetic(50, seed=50, rank_max=20)
        best, curve = select_sigma_loo(data, [13.0])
        assert best == 13.0 and len(curve) == 1

    def test_two_point_ties_take_largest_sigma(self):
        # each leave-one-out fit has a single training point whose weight is
        # exactly 1 for any sigma, so the scores tie bitwise
        data = make_dataset([3, 20], [15, 4], [6.0, -2.0])
        best, curve = select_sigma_loo(data, [3.0, 1.0, 2.0])
        assert len({r for _, r in curve}) == 1
        assert best == 3.0

    def test_errors(self):
        data = generate_synthetic(20, seed=51, rank_max=10)
        with pytest.raises(ParameterError):
            select_sigma_loo(data, [])
        with pytest.raises(ParameterError):
            select_sigma_loo(data, [5.0, 0.0])
        with pytest.raises(ParameterError):
            select_sigma_loo(data, [5.0, 1e-200])
        with pytest.raises(DataError):
            select_sigma_loo(data.subset(np.array([0])), [5.0])


class TestAnisotropicSelection:
    def test_singleton_matches_isotropic_kfold(self):
        data = generate_synthetic(120, seed=52, rank_max=40)
        (bx, by), surface = select_aniso_cv(
            data, sigma_x_grid=[11.0], sigma_y_grid=[11.0], folds=5, seed=6
        )
        assert (bx, by) == (11.0, 11.0)
        # recompute through the isotropic predictor on the same partition
        total = 0.0
        n = len(data)
        for tr, held in fold_splits(n, 5, 6):
            spec = isotropic_smoother(data.subset(tr), 11.0)
            preds = predict_kernel_arrays(spec, data.road_ranks[held], data.home_ranks[held])
            err = preds - data.movs[held]
            total += float(err @ err)
        assert surface[0][2] == pytest.approx(np.sqrt(total / n), abs=1e-12)

    def test_deterministic(self):
        data = generate_synthetic(100, seed=53, rank_max=30)
        a = select_aniso_cv(data, sigma_x_grid=[20, 40], sigma_y_grid=[4, 8], folds=4, seed=1)
        b = select_aniso_cv(data, sigma_x_grid=[20, 40], sigma_y_grid=[4, 8], folds=4, seed=1)
        assert a == b
        c = select_aniso_cv(data, sigma_x_grid=[20, 40], sigma_y_grid=[4, 8], folds=4, seed=2)
        assert c[1] != a[1]

    def test_two_point_ties_take_largest_pair(self):
        data = make_dataset([3, 20], [15, 4], [6.0, -2.0])
        best, surface = select_aniso_cv(
            data, sigma_x_grid=[20.0, 10.0], sigma_y_grid=[6.0, 2.0], folds=2, seed=0
        )
        assert len({rm for _, _, rm in surface}) == 1
        assert best == (20.0, 6.0)

    def test_surface_covers_grid_in_order(self):
        data = generate_synthetic(60, seed=54, rank_max=20)
        _, surface = select_aniso_cv(
            data, sigma_x_grid=[10, 30], sigma_y_grid=[2, 12], folds=3, seed=0
        )
        assert [(sx, sy) for sx, sy, _ in surface] == [
            (10.0, 2.0), (10.0, 12.0), (30.0, 2.0), (30.0, 12.0)
        ]

    def test_errors(self):
        data = generate_synthetic(30, seed=55, rank_max=10)
        with pytest.raises(ParameterError):
            select_aniso_cv(data, sigma_x_grid=[], sigma_y_grid=[5.0])
        with pytest.raises(ParameterError):
            select_aniso_cv(data, sigma_x_grid=[5.0], sigma_y_grid=[0.0])
        with pytest.raises(ParameterError):
            select_aniso_cv(data, sigma_x_grid=[1e-170], sigma_y_grid=[5.0])
        with pytest.raises(ParameterError):
            select_aniso_cv(data, sigma_x_grid=[5.0], sigma_y_grid=[5.0], folds=31)


@st.composite
def _lattice_case(draw):
    # integer training pairs, most of them replicated; fractional and far
    # queries; bandwidths from 1e-3 to 200 with sigma_x / sigma_y up to 50
    cells = draw(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2, max_size=40))
    road, home = (np.array(axis, dtype=float) for axis in zip(*(cells[i] for i in picks)))
    movs = draw(st.lists(st.integers(-40, 40), min_size=len(picks), max_size=len(picks)))
    sigma_x = draw(st.floats(1e-3, 200.0))
    sigma_y = min(max(sigma_x / draw(st.floats(1 / 50, 50.0)), 1e-3), 200.0)
    ranks = st.one_of(st.floats(0.5, 30.5), st.floats(-200.0, 250.0))
    queries = st.lists(ranks, min_size=4, max_size=4)
    return road, home, np.array(movs, dtype=float), (sigma_x, sigma_y), draw(queries), draw(queries)


_LATTICE = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_LATTICE
@given(_lattice_case())
def test_lattice_matches_direct_sum(case):
    road, home, movs, sigmas, qr, qh = case
    spec = KernelSmootherSpec(road, home, movs, *sigmas)
    want = _weighted_reference(road, home, movs, np.ones(len(movs)), sigmas, qr, qh)
    np.testing.assert_allclose(predict_kernel_arrays(spec, qr, qh), want, rtol=0, atol=1e-12)


@_LATTICE
@given(_lattice_case(), st.data())
def test_aniso_cv_matches_per_fold_direct_sums(case, data):
    road, home, movs, (sx, sy), _, _ = case
    n = len(movs)
    folds, seed = data.draw(st.integers(2, min(n, 5))), data.draw(st.integers(0, 3))
    _, surface = select_aniso_cv(make_dataset(road, home, movs), [sx, sy], [sy, sx], folds, seed)
    for sigma_x, sigma_y, got in surface:
        total = 0.0
        for tr, held in fold_splits(n, folds, seed):
            preds = _weighted_reference(
                road[tr], home[tr], movs[tr], np.ones(len(tr)), (sigma_x, sigma_y),
                road[held], home[held],
            )
            total += float(np.sum((preds - movs[held]) ** 2))
        assert got == pytest.approx(math.sqrt(total / n), rel=1e-12, abs=1e-12)


@pytest.fixture
def exact_rows(monkeypatch):
    """A list that gets the number of rows of each call of the exact path; a
    fallback warning fails the test."""
    calls, direct = [], kernel._direct_means

    def counted(r, *args, **kwargs):
        calls.append(len(r))
        return direct(r, *args, **kwargs)

    monkeypatch.setattr(kernel, "_direct_means", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneratePredictionWarning)
        yield calls


def test_exact_path_when_the_axis_products_underflow(exact_rows):
    # the nearest training sum (12) is the pair (8, 4)'s and the nearest
    # difference (0) the pair (5, 5)'s, so every product of axis factors is
    # tiny, while the nearest game, at (5, 5), weighs 1
    road, home, movs = [5, 5, 5, 8], [5, 5, 5, 4], [2.0, 5.0, 11.0, -20.0]
    for sigma in (0.0355, 0.02):  # the products are subnormal, then 0
        spec = KernelSmootherSpec(road, home, movs, sigma, sigma)
        exact_rows.clear()
        got = predict_kernel_arrays(spec, [6.0], [5.9])
        assert sum(exact_rows) == 1
        assert got[0] == pytest.approx(6.0, rel=1e-12)
    want = oracles.kernel_predict_reference(road, home, movs, 6.0, 5.9, sigma=0.0355)
    got = predict_kernel(KernelSmootherSpec(road, home, movs, 0.0355, 0.0355), 6.0, 5.9)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.05, 0.2])
def test_exact_path_for_lone_games_in_leave_one_out(sigma, exact_rows):
    # at sigma << 1 a lone game's own weight of 1 swamps the others, so
    # (F_S - y) / (F_N - 1) would cancel; those rows take the direct sum
    road, home = [3, 4, 3, 3, 5, 3, 6, 3, 6], [4, 4, 4, 5, 6, 4, 6, 5, 6]
    movs = [-10.0, 7.0, 12.0, 3.0, -4.0, 0.0, 9.0, -6.0, 15.0]
    data = make_dataset(road, home, movs)
    _, curve = select_sigma_loo(data, [sigma])
    assert sum(exact_rows) == 2  # (4, 4) and (5, 6) are alone
    want = oracles.kernel_loo_rmse_reference(road, home, movs, sigma)
    assert curve[0][1] == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("rank_max", [60, 351])
def test_report_season_stays_on_the_lattice(rank_max, exact_rows):
    # the criterion-7 grids on a 6,024-game season: no row takes the direct sum
    season = generate_synthetic(6024, seed=3, rank_max=rank_max)
    train = season.subset(np.arange(4518))
    select_sigma_loo(train, [12.0, 19.0, 30.0])
    select_aniso_cv(train, [30.0, 60.0], [8.0, 16.0], folds=5, seed=0)
    for sigmas in ((12.0, 12.0), (30.0, 30.0), (30.0, 8.0), (60.0, 16.0)):
        spec = KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, *sigmas)
        predict_kernel_arrays(spec, season.road_ranks, season.home_ranks)
    assert sum(exact_rows) == 0


def _composition_queries(rank_max, rng):
    # integer pairs, many sharing a rank sum (runs of one u), fractional
    # pairs, and pairs off the edge of the training ranks
    shared = [(a, s - a) for s in (rank_max // 2, rank_max + 1) for a in range(1, s, 2)]
    integer = rng.integers(1, rank_max + 1, (60, 2))
    fractional = rng.uniform(0.5, rank_max + 0.5, (30, 2))
    far = [(rank_max + 6.0, 1.0), (1.0, rank_max + 4.5), (rank_max + 3.0, rank_max + 5.0)]
    r, h = np.concatenate([shared, integer, fractional, far]).T
    return r, h


def _assert_composition_free(spec, r, h):
    full = predict_kernel_arrays(spec, r, h)
    alone = np.array([predict_kernel_arrays(spec, [a], [b])[0] for a, b in zip(r, h)])
    k = len(r) // 3
    halves = np.concatenate([predict_kernel_arrays(spec, r[:k], h[:k]), predict_kernel_arrays(spec, r[k:], h[k:])])
    reverse = predict_kernel_arrays(spec, r[::-1], h[::-1])[::-1]
    for got in (alone, halves, reverse):
        assert np.array_equal(got, full)


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("sigmas", [(12.0, 12.0), (30.0, 8.0)])
@pytest.mark.parametrize("rank_max", [60, 351])
def test_prediction_does_not_depend_on_the_other_queries(
    rank_max, sigmas, small_chunks, monkeypatch, exact_rows
):
    # each query's prediction is the same bits alone, in the batch, in two
    # halves and in reversed order, also when the runs of one u span chunks
    if small_chunks:
        monkeypatch.setattr(kernel, "_CHUNK", 20_000)
    train = generate_synthetic(1500, seed=17, rank_max=rank_max)
    spec = KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, *sigmas)
    r, h = _composition_queries(rank_max, np.random.default_rng(rank_max))
    predict_kernel_arrays(spec, r, h)
    assert sum(exact_rows) == 0  # every row on the lattice
    _assert_composition_free(spec, r, h)


@pytest.mark.parametrize("sigmas", [(12.0, 12.0), (30.0, 8.0)])
def test_exact_path_does_not_depend_on_the_other_queries(sigmas, exact_rows):
    train = generate_synthetic(1500, seed=17, rank_max=60)
    spec = KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, *sigmas)
    r, h = _composition_queries(60, np.random.default_rng(3))
    far = np.array([[200.0, 3.0], [-120.0, 0.5], [480.0, 481.0], [90.0, -75.0], [61.0, 300.0]])
    r, h = np.concatenate([r, far[:, 0]]), np.concatenate([h, far[:, 1]])
    predict_kernel_arrays(spec, r, h)
    assert sum(exact_rows) == len(far)
    _assert_composition_free(spec, r, h)


def test_grid_sums_equal_single_pair_sums():
    # an asymmetric grid: a swapped reshape or transpose of the grid axes fails
    train = generate_synthetic(800, seed=23, rank_max=60)
    lat = kernel._lattice(train.road_ranks, train.home_ranks, train.movs)
    r, h = _composition_queries(60, np.random.default_rng(5))
    first, _, _ = kernel.distinct_pairs(r, h)
    u, v = r[first] + h[first], r[first] - h[first]
    xs, ys = [10.0, 25.0, 60.0], [4.0, 15.0]
    sums = kernel._kernel_sums(lat, u, v, xs, ys)
    assert sums.shape == (3, 2, 2, len(u))
    for (i, sx), (j, sy) in product(enumerate(xs), enumerate(ys)):
        assert np.array_equal(sums[i, j], kernel._kernel_sums(lat, u, v, [sx], [sy])[0, 0])
