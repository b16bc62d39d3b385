"""Local linear smoothing: prediction, fallbacks, and span selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmargin import loess
from rankmargin.data import fold_splits
from rankmargin.errors import DegeneratePredictionWarning, ParameterError
from rankmargin.loess import (
    DEFAULT_SPAN_GRID,
    LoessFit,
    _predict_exact,
    fit_loess,
    predict_loess,
    predict_loess_arrays,
    select_span_cv,
)
from rankmargin.synth import generate_synthetic
from util import make_dataset

import oracles


def test_default_span_grid():
    assert DEFAULT_SPAN_GRID[0] == 0.05
    assert DEFAULT_SPAN_GRID[-1] == 1.0
    assert len(DEFAULT_SPAN_GRID) == 20


def test_neighborhood_sizes():
    data = generate_synthetic(4518, seed=0)
    assert fit_loess(data, 0.3).neighborhood_size == 1356
    assert fit_loess(data, 1.0).neighborhood_size == 4518


def test_span_validation():
    data = generate_synthetic(100, seed=0, rank_max=30)
    for bad in (0.0, -0.2, 1.0000001):
        with pytest.raises(ParameterError):
            fit_loess(data, bad)
    with pytest.raises(ParameterError):
        fit_loess(data, 1e-4)  # keeps a single point; a plane needs 3


def test_reproduces_plane_exactly():
    rng = np.random.default_rng(15)
    road = rng.integers(1, 51, 200)
    home = rng.integers(1, 51, 200)
    movs = 2.0 - 0.3 * road + 0.4 * home
    fit = fit_loess(make_dataset(road, home, movs), 0.35)
    queries_r = np.array([10.0, 25.5, 40.0, 7.3])
    queries_h = np.array([30.0, 12.2, 40.0, 44.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        preds = predict_loess_arrays(fit, queries_r, queries_h)
    expected = 2.0 - 0.3 * queries_r + 0.4 * queries_h
    np.testing.assert_allclose(preds, expected, atol=1e-8)


def test_antisymmetric_configuration_predicts_zero():
    # mirrored pairs around the query with opposite marks: the local plane's
    # intercept vanishes by symmetry
    offsets = [(2, 0), (0, 3), (2, 2), (4, 4)]
    marks = [5.0, 1.5, -2.0, 8.0]
    road, home, movs = [], [], []
    for (dr, dh), v in zip(offsets, marks):
        road += [10 + dr, 10 - dr]
        home += [10 + dh, 10 - dh]
        movs += [v, -v]
    fit = fit_loess(make_dataset(road, home, movs), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predict_loess(fit, 10.0, 10.0) == pytest.approx(0.0, abs=1e-10)


def test_matches_brute_force_reference():
    rng = np.random.default_rng(16)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(100, 501))
        rank_max = int(rng.integers(30, 301))
        data = generate_synthetic(n, seed=trial + 100, rank_max=rank_max)
        span = float(rng.uniform(0.2, 0.9))
        fit = fit_loess(data, span)
        for _ in range(6):
            qr = float(rng.uniform(1, rank_max))
            qh = float(rng.uniform(1, rank_max))
            got = predict_loess(fit, qr, qh)
            want = oracles.loess_predict_reference(
                list(data.road_ranks), list(data.home_ranks), list(data.movs),
                span, qr, qh,
            )
            worst = max(worst, abs(got - want))
    assert worst <= 1e-8


def test_arrays_match_scalar():
    data = generate_synthetic(150, seed=17, rank_max=40)
    fit = fit_loess(data, 0.4)
    r = np.array([3.0, 18.5, 39.0])
    h = np.array([22.0, 5.5, 1.0])
    batch = predict_loess_arrays(fit, r, h)
    singles = [predict_loess(fit, ri, hi) for ri, hi in zip(r, h)]
    np.testing.assert_array_equal(batch, singles)


def _raw_ranks(data, span):
    """A LOESS fit on unscaled ranks."""
    return LoessFit(data.road_ranks, data.home_ranks, data.movs, span, predictor_scales=(1.0, 1.0))


class TestDegenerateNeighborhoods:
    def test_all_neighbors_at_query(self):
        data = make_dataset([5] * 6, [5] * 6, [1.0, 2, 3, 4, 5, 6])
        fit = fit_loess(data, 0.5)
        with pytest.warns(DegeneratePredictionWarning):
            assert predict_loess(fit, 5.0, 5.0) == pytest.approx(3.5)

    def test_ring_around_query(self):
        data = make_dataset(
            [9, 11, 10, 10], [10, 10, 9, 11], [2.0, 4.0, 6.0, 8.0]
        )
        fit = _raw_ranks(data, 1.0)
        with pytest.warns(DegeneratePredictionWarning):
            assert predict_loess(fit, 10.0, 10.0) == pytest.approx(5.0)

    def test_fewer_than_three_inside(self):
        data = make_dataset(
            [11, 10, 12, 10], [10, 11, 10, 12], [3.0, 7.0, 100.0, 200.0]
        )
        fit = _raw_ranks(data, 1.0)
        with pytest.warns(DegeneratePredictionWarning):
            # the two distance-2 points tie at d_max and drop out; the two
            # distance-1 points share a tricube weight, so their plain mean
            assert predict_loess(fit, 10.0, 10.0) == pytest.approx(5.0)

    def test_collinear_neighborhood(self):
        idx = np.arange(1, 11)
        data = make_dataset(idx, idx, 1.0 + 0.5 * idx)
        fit = fit_loess(data, 1.0)
        with pytest.warns(DegeneratePredictionWarning):
            got = predict_loess(fit, 3.0, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = oracles.loess_predict_reference(
                list(data.road_ranks), list(data.home_ranks), list(data.movs),
                1.0, 3.0, 5.0,
            )
        assert got == pytest.approx(want, abs=1e-12)


def _exact(fit, road, home):
    """Predictions of the scalar SVD path, one query at a time."""
    q = fit.neighborhood_size
    return np.array([_predict_exact(fit, q, r, h)[0] for r, h in zip(road, home)])


def _mixed_degenerate():
    """Training games around five queries: the first four each meet one of
    the degenerate neighborhoods of TestDegenerateNeighborhoods, the fifth
    an ordinary one. Span 0.2 keeps 4 of the 20 games."""
    road, home = [10] * 4, [10] * 4  # coincident at (10, 10)
    road += [49, 51, 50, 50]  # ring of radius 1 around (50, 10)
    home += [10, 10, 9, 11]
    road += [11, 10, 12, 10]  # 2 at distance 1, 2 tied at d_max = 2 from (10, 50)
    home += [50, 51, 50, 52]
    road += [51, 52, 53, 49]  # 3 collinear inside d_max = 3*sqrt(2) of (50, 50)
    home += [51, 52, 53, 49]
    road += [101, 100, 100, 103]  # 3 inside d_max = 2 of (101, 101), not collinear
    home += [100, 100, 102, 101]
    movs = np.arange(1.0, 21.0) ** 1.5
    data = make_dataset(road, home, movs)
    queries = (
        np.array([10.0, 50.0, 10.0, 50.0, 101.0]),
        np.array([10.0, 10.0, 50.0, 50.0, 101.0]),
    )
    return _raw_ranks(data, 0.2), queries


class TestBatchedPrediction:
    @pytest.mark.parametrize("n", [50, 120, 4518])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_matches_exact_path(self, n, standardize):
        rng = np.random.default_rng(n)
        data = generate_synthetic(n, seed=n, rank_max=351 if n > 1000 else 60)
        rank_max = int(data.road_ranks.max())
        integer = rng.integers(1, rank_max + 1, size=(2, 60)).astype(float)
        fractional = rng.uniform(0.5, rank_max + 0.5, size=(2, 60))
        road, home = np.concatenate([integer, fractional], axis=1)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePredictionWarning)
            for span in (0.05, 0.1, 0.3, 0.6, 1.0):
                if math.ceil(span * n) < 3:
                    continue
                fit = fit_loess(data, span) if standardize else _raw_ranks(data, span)
                got = predict_loess_arrays(fit, road, home)
                worst = max(worst, np.max(np.abs(got - _exact(fit, road, home))))
        assert worst <= 1e-10

    def test_mixed_degenerate_batch_matches_exact_path(self):
        fit, (road, home) = _mixed_degenerate()
        with pytest.warns(DegeneratePredictionWarning):
            got = predict_loess_arrays(fit, road, home)
        want = _exact(fit, road, home)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        reasons = [_predict_exact(fit, 4, r, h)[1] for r, h in zip(road, home)]
        assert len(set(reasons[:4])) == 4 and reasons[4] is None

    def test_one_warning_per_call_counts_fallbacks(self):
        fit, (road, home) = _mixed_degenerate()
        # the four degenerate queries twice and the ordinary one: k = 8
        road = np.concatenate([road[:4], road])
        home = np.concatenate([home[:4], home])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            predict_loess_arrays(fit, road, home)
        assert len(caught) == 1
        assert issubclass(caught[0].category, DegeneratePredictionWarning)
        assert str(caught[0].message).startswith("8 of 9 LOESS predictions fell back")

    def test_block_composition_does_not_change_bits(self, monkeypatch):
        data = generate_synthetic(900, seed=21, rank_max=120)
        fit = fit_loess(data, 0.2)
        rng = np.random.default_rng(21)
        road = np.concatenate([rng.integers(1, 121, 150), rng.uniform(1, 120, 150)])
        home = np.concatenate([rng.integers(1, 121, 150), rng.uniform(1, 120, 150)])
        whole = predict_loess_arrays(fit, road, home)
        singles = [predict_loess(fit, r, h) for r, h in zip(road, home)]
        reversed_ = predict_loess_arrays(fit, road[::-1], home[::-1])[::-1]
        np.testing.assert_array_equal(whole, singles)
        np.testing.assert_array_equal(whole, reversed_)
        monkeypatch.setattr(loess, "BLOCK_ELEMENTS", 7 * len(data))
        np.testing.assert_array_equal(whole, predict_loess_arrays(fit, road, home))

    def test_repeated_queries_match_single_queries(self, monkeypatch):
        # each distinct pair is predicted once and copied; 400 queries on a
        # 30 x 30 grid repeat, and small blocks split the distinct ones
        data = generate_synthetic(600, seed=23, rank_max=30)
        fit = fit_loess(data, 0.3)
        rng = np.random.default_rng(23)
        road, home = rng.integers(1, 31, size=(2, 400)).astype(float)
        assert len(set(zip(road, home))) < 350
        monkeypatch.setattr(loess, "BLOCK_ELEMENTS", 7 * len(data))
        got = predict_loess_arrays(fit, road, home)
        np.testing.assert_array_equal(got, [predict_loess(fit, r, h) for r, h in zip(road, home)])

    def test_span_cv_matches_per_span_prediction(self):
        data = generate_synthetic(240, seed=22, rank_max=40)
        grid = [0.2, 0.45, 0.7]
        _, curve = select_span_cv(data, span_grid=grid, folds=4, seed=5)
        n = len(data)
        for (s, got), span in zip(curve, grid):
            total = 0.0
            for tr, held in fold_splits(n, 4, 5):
                part = fit_loess(data.subset(tr), span)
                err = predict_loess_arrays(
                    part, data.road_ranks[held], data.home_ranks[held]
                ) - data.movs[held]
                total += float(err @ err)
            assert got == math.sqrt(total / n)


def _messages(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [str(w.message) for w in caught]


class TestThreadedBlocks:
    """Blocks run on one thread per CPU; the worker count must not change a
    bit of any result or a character of any warning."""

    def _runs(self, monkeypatch, call):
        pools = []

        class Pool(loess.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(loess, "ThreadPoolExecutor", Pool)
        runs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(loess, "_cpus", lambda k=k: k)
            pools.clear()
            runs.append(_messages(call))
            # one CPU runs inline; more CPUs start pools of up to that size
            assert max(pools, default=1) == k
        return runs

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        data = generate_synthetic(300, seed=24, rank_max=40)
        fit = fit_loess(data, 0.3)
        rng = np.random.default_rng(24)
        road = np.concatenate([rng.integers(1, 41, 60), rng.uniform(1, 40, 60)])
        home = np.concatenate([rng.integers(1, 41, 60), rng.uniform(1, 40, 60)])
        sizes = [4, 40, 90, 300]
        monkeypatch.setattr(loess, "BLOCK_ELEMENTS", 7 * len(data))
        runs = self._runs(
            monkeypatch,
            lambda: (
                predict_loess_arrays(fit, road, home),
                loess._predict(fit, road, home, sizes)[0],
                select_span_cv(data, span_grid=[0.1, 0.3, 0.8], folds=4, seed=1)[1],
            ),
        )
        (arrays, planes, curve), _ = runs[0]
        for (a, p, c), _ in runs[1:]:
            np.testing.assert_array_equal(a, arrays)
            np.testing.assert_array_equal(p, planes)
            assert c == curve

    def test_worker_count_does_not_change_warnings(self, monkeypatch):
        # blocks of one or two queries, so different blocks fall back for
        # different reasons
        fit, (road, home) = _mixed_degenerate()
        monkeypatch.setattr(loess, "BLOCK_ELEMENTS", 5 * len(fit.movs))
        data = make_dataset(fit.road_ranks, fit.home_ranks, fit.movs)
        runs = self._runs(
            monkeypatch,
            lambda: (
                predict_loess_arrays(fit, road, home),
                list(loess._predict(fit, road, home, [4, 5, 12])[1].items()),
                select_span_cv(data, span_grid=[0.2, 0.4, 1.0], folds=4, seed=0),
            ),
        )
        (preds, reasons, cv), messages = runs[0]
        assert len(messages) == 2 and len(reasons) == 4
        for (p, why, c), m in runs[1:]:
            np.testing.assert_array_equal(p, preds)
            assert (why, c, m) == (reasons, cv, messages)

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_threads(*args):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(loess, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(loess, "_cpus", lambda: 4)
        data = generate_synthetic(200, seed=25, rank_max=30)
        fit = fit_loess(data, 0.4)
        road, home = np.arange(1.0, 21.0), np.arange(20.0, 0.0, -1.0)
        assert predict_loess(fit, road[2], home[2]) == predict_loess_arrays(fit, road, home)[2]
        monkeypatch.setattr(loess, "BLOCK_ELEMENTS", 7 * len(data))
        with pytest.raises(AssertionError, match="thread pool"):
            predict_loess_arrays(fit, road, home)


@st.composite
def _training(draw):
    n = draw(st.integers(8, 40))
    ranks = st.lists(st.integers(1, 25), min_size=n, max_size=n)
    marks = st.lists(st.floats(-40, 40, allow_nan=False), min_size=n, max_size=n)
    span = draw(st.floats(3.0 / n, 1.0))
    queries = st.lists(st.floats(0.5, 25.5, allow_nan=False), min_size=4, max_size=4)
    return (
        np.array(draw(ranks), dtype=float),
        np.array(draw(ranks), dtype=float),
        np.array(draw(marks)),
        np.array(draw(marks)),
        span,
        np.array(draw(queries)),
        np.array(draw(queries)),
    )


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _loess(road, home, movs, span):
    return LoessFit(road, home, movs, span=span, predictor_scales=(4.0, 6.0))


@_PROPERTY
@given(_training(), st.randoms(use_true_random=False))
def test_invariant_to_permuting_training_games(training, rnd):
    road, home, movs, _, span, qr, qh = training
    order = list(range(len(movs)))
    rnd.shuffle(order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePredictionWarning)
        a = predict_loess_arrays(_loess(road, home, movs, span), qr, qh)
        b = predict_loess_arrays(_loess(road[order], home[order], movs[order], span), qr, qh)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


@_PROPERTY
@given(_training(), st.floats(-3, 3), st.floats(-3, 3))
def test_linear_in_margins(training, alpha, beta):
    road, home, y1, y2, span, qr, qh = training
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePredictionWarning)
        p1 = predict_loess_arrays(_loess(road, home, y1, span), qr, qh)
        p2 = predict_loess_arrays(_loess(road, home, y2, span), qr, qh)
        mixed = predict_loess_arrays(_loess(road, home, alpha * y1 + beta * y2, span), qr, qh)
    np.testing.assert_allclose(mixed, alpha * p1 + beta * p2, rtol=0, atol=1e-9)


class TestSpanSelection:
    def test_deterministic(self):
        data = generate_synthetic(200, seed=18, rank_max=50)
        a = select_span_cv(data, span_grid=[0.3, 0.6], folds=4, seed=2)
        b = select_span_cv(data, span_grid=[0.3, 0.6], folds=4, seed=2)
        assert a == b
        c = select_span_cv(data, span_grid=[0.3, 0.6], folds=4, seed=3)
        assert c[1] != a[1]

    def test_singleton_grid(self):
        data = generate_synthetic(80, seed=19, rank_max=30)
        best, curve = select_span_cv(data, span_grid=[0.4], folds=4, seed=0)
        assert best == 0.4
        assert len(curve) == 1

    def test_grid_and_fold_errors(self):
        data = generate_synthetic(30, seed=20, rank_max=20)
        with pytest.raises(ParameterError):
            select_span_cv(data, span_grid=[], folds=3, seed=0)
        with pytest.raises(ParameterError):
            select_span_cv(data, span_grid=[0.5, 1.5], folds=3, seed=0)
        with pytest.raises(ParameterError):
            select_span_cv(data, span_grid=[0.5], folds=1, seed=0)
        with pytest.raises(ParameterError):
            select_span_cv(data, span_grid=[0.5], folds=31, seed=0)
        with pytest.raises(ParameterError):
            # ceil(0.05 * 27) = 2 inside the smallest training fold
            select_span_cv(data, span_grid=[0.05], folds=10, seed=0)

    def test_zero_noise_plane_scores_near_zero(self):
        rng = np.random.default_rng(0)
        road = rng.integers(1, 301, 150)
        home = rng.integers(1, 301, 150)
        movs = 2.0 - 0.04 * road + 0.05 * home
        data = make_dataset(road, home, movs)
        best, curve = select_span_cv(data, span_grid=[0.2, 0.5, 1.0], folds=5, seed=0)
        assert all(r <= 1e-6 for _, r in curve)

    def test_exact_ties_take_largest_span(self):
        # every fit degenerates to the same coincident-point mean, so all
        # spans score identically and the tie rule decides
        data = make_dataset([5] * 6, [5] * 6, [1.0, 5, 3, 2, 4, 6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePredictionWarning)
            best, curve = select_span_cv(
                data, span_grid=[0.7, 0.9, 1.0], folds=2, seed=1
            )
        scores = {r for _, r in curve}
        assert len(scores) == 1
        assert best == 1.0

    def test_cv_curve_is_flat_on_rank_data(self):
        data = generate_synthetic(600, seed=14, rank_max=150)
        best, curve = select_span_cv(
            data, span_grid=[0.1, 0.2, 0.3, 0.4, 0.5], folds=5, seed=3
        )
        vals = [r for _, r in curve]
        assert max(vals) / min(vals) <= 1.10
        assert all(10.5 <= v <= 12.5 for v in vals)
