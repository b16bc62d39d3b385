"""Weighted least squares, smoothing splines, and the F distribution."""

import math

import numpy as np
import pytest
import scipy.stats

from rankmargin.errors import DataError, ParameterError, RankDeficientError
from rankmargin.numerics import (
    SplineSmoother,
    evaluate_smooth,
    evaluation_weights,
    f_sf,
    min_ties_to_larger,
    weighted_least_squares,
)
from rankmargin.synth import generate_synthetic
from util import spline_fit

import oracles


class TestWeightedLeastSquares:
    def test_two_point_interpolation(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0]])
        sol = weighted_least_squares(design, np.array([2.0, 5.0]))
        np.testing.assert_allclose(sol.coefficients, [2.0, 3.0], atol=1e-12)
        assert sol.residual_ss == pytest.approx(0.0, abs=1e-20)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(0)
        design = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        w = rng.uniform(0.5, 2.0, 40)
        a = weighted_least_squares(design, y, w)
        b = weighted_least_squares(design, y, 10.0 * w)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-12)
        np.testing.assert_allclose(a.hat_diagonal, b.hat_diagonal, atol=1e-12)

    def test_duplicate_column_rank_deficient(self):
        design = np.ones((5, 2))
        with pytest.raises(RankDeficientError):
            weighted_least_squares(design, np.arange(5.0))

    def test_three_point_hand_hat_and_studentization(self):
        # y = (0, 0, 3) at x = (0, 1, 2): hand algebra gives
        # coefficients (-1/2, 3/2), leverages (5/6, 1/3, 5/6),
        # sigma^2 = 3/2, and studentized residuals (1, -1, 1).
        design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([0.0, 0.0, 3.0])
        sol = weighted_least_squares(design, y)
        np.testing.assert_allclose(sol.coefficients, [-0.5, 1.5], atol=1e-10)
        np.testing.assert_allclose(
            sol.hat_diagonal, [5.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], atol=1e-10
        )
        sigma = math.sqrt(sol.residual_ss / (3 - 2))
        resid = y - design @ sol.coefficients
        student = resid / (sigma * np.sqrt(1.0 - sol.hat_diagonal))
        np.testing.assert_allclose(student, [1.0, -1.0, 1.0], atol=1e-10)

    def test_hat_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        w = rng.uniform(0.2, 3.0, 60)
        sol = weighted_least_squares(design, y, w)
        np.testing.assert_allclose(
            sol.hat_diagonal, oracles.hat_diagonal_reference(design, w), atol=1e-10
        )
        assert sol.hat_diagonal.sum() == pytest.approx(4.0, abs=1e-10)
        resid = y - design @ sol.coefficients
        assert sol.residual_ss == pytest.approx(float(w @ resid**2), rel=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(5)
        design = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        y = rng.normal(size=80) * 4.0
        w = rng.uniform(0.1, 5.0, 80)
        sol = weighted_least_squares(design, y, w)
        resid = y - design @ sol.coefficients
        scale = float(np.abs(y).max())
        for j in range(design.shape[1]):
            assert abs(float(np.sum(w * resid * design[:, j]))) <= 1e-8 * 80 * scale

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            weighted_least_squares(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ParameterError):
            weighted_least_squares(np.ones((3, 1)), np.zeros(3), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ParameterError):
            weighted_least_squares(
                np.column_stack([np.ones(4), np.arange(4.0)]),
                np.zeros(4),
                np.array([1.0, 0.0, 0.0, 0.0]),
            )
        with pytest.raises(ParameterError):
            weighted_least_squares(np.ones((3, 1)), np.zeros(4))


class TestFCdf:
    """The F distribution through its upper tail f_sf, which is 1 - CDF."""

    def test_symmetry_point(self):
        for d in (1, 5, 50):
            assert f_sf(1.0, d, d) == pytest.approx(0.5, abs=1e-10)

    def test_boundaries(self):
        assert f_sf(0.0, 3, 7) == 1.0
        assert f_sf(math.inf, 3, 7) == 0.0
        with pytest.raises(ParameterError):
            f_sf(-2.0, 3, 7)

    def test_chi_square_limit(self):
        # F(1, big) -> chi-square(1); 3.8415 is the 95th percentile
        value = f_sf(3.8415, 1, 100000)
        assert value == pytest.approx(0.05, abs=1e-3)
        assert value == pytest.approx(1.0 - oracles.f_cdf_reference(3.8415, 1, 100000), abs=1e-6)

    def test_matches_quadrature(self):
        cases = [(0.3, 2, 5), (1.7, 4, 4), (2.5, 1, 3), (5.0, 10, 2), (0.9, 7, 13)]
        for v, d1, d2 in cases:
            assert f_sf(v, d1, d2) == pytest.approx(
                1.0 - oracles.f_cdf_reference(v, d1, d2), abs=1e-8
            )

    @pytest.mark.parametrize(
        "value, df1, df2",
        [(10.0, 547, 48), (50.0, 547, 48), (3.0, 5, 5), (40.0, 3, 1000), (200.0, 1, 20),
         (8.0, 60, 600)],
    )
    def test_far_tail_matches_scipy(self, value, df1, df2):
        # 1 - CDF loses these tails to rounding: at F = 50 on (547, 48) it gives 0.0
        expected = scipy.stats.f.sf(value, df1, df2)
        assert 0.0 < expected
        assert f_sf(value, df1, df2) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_invalid_dfs(self):
        with pytest.raises(ParameterError):
            f_sf(1.0, 0, 5)
        with pytest.raises(ParameterError):
            f_sf(1.0, 5, -1)

    def test_monotone_and_complement(self):
        values = np.linspace(0.0, 12.0, 25)
        tails = [f_sf(v, 4, 9) for v in values]
        assert all(a >= b - 1e-14 for a, b in zip(tails, tails[1:]))
        # reciprocal-F identity: P(F(a,b) > x) = P(F(b,a) < 1/x)
        for v in (0.4, 1.3, 3.8):
            assert f_sf(v, 4, 9) + f_sf(1.0 / v, 9, 4) == pytest.approx(1.0, abs=1e-10)


def _noisy_sites(seed, m=40, lo=1.0, hi=100.0):
    rng = np.random.default_rng(seed)
    x = np.unique(np.round(rng.uniform(lo, hi, m), 2))
    y = 10.0 * np.sin(x / 15.0) + rng.normal(0, 1.0, len(x))
    w = rng.uniform(0.5, 3.0, len(x))
    return x, y, w


def _fit(x, y, w, df):
    """The smoothing spline of target df through weighted sites, as the GAM fits it."""
    sm = SplineSmoother(x, weights=w)
    return spline_fit(sm, y, sm.lambda_for_df(df))


class TestSplineSmoother:
    def test_reproduces_linear_data_any_df(self):
        x, _, w = _noisy_sites(1)
        y = 2.5 - 0.3 * x
        sm = SplineSmoother(x, weights=w)
        for df in (2.0, 3.7, 8.0, float(len(x))):
            f = spline_fit(sm, y, sm.lambda_for_df(df))
            np.testing.assert_allclose(f.values, y, atol=1e-8)

    def test_interpolation_limit(self):
        x, y, w = _noisy_sites(2)
        sm = SplineSmoother(x, weights=w)
        f = spline_fit(sm, y, sm.lambda_for_df(float(len(x))))
        np.testing.assert_allclose(f.values, y, atol=1e-6)
        assert f.lam == 0.0

    def test_weighted_line_limit(self):
        x, y, w = _noisy_sites(3)
        sm = SplineSmoother(x, weights=w)
        f = spline_fit(sm, y, sm.lambda_for_df(2.0))
        design = np.column_stack([np.ones(len(x)), x])
        sol = weighted_least_squares(design, y, w)
        np.testing.assert_allclose(f.values, design @ sol.coefficients, atol=1e-6)
        assert math.isinf(f.lam)

    def test_matches_reference_smoother_at_fixed_lambda(self):
        x, y, w = _noisy_sites(4)
        sm = SplineSmoother(x, weights=w)
        for lam in (1e-3, 1.0, 50.0, 5e3):
            mine = spline_fit(sm, y, lam).values
            ref = oracles.smoothing_spline_reference(x, y, w, lam)
            np.testing.assert_allclose(mine, ref, atol=1e-6)

    def test_linear_in_response(self):
        x, y1, w = _noisy_sites(15)
        rng = np.random.default_rng(16)
        y2 = rng.normal(0, 3.0, len(x))
        sm = SplineSmoother(x, weights=w)
        lam = 4.0
        combined = spline_fit(sm, y1 + y2, lam).values
        separate = spline_fit(sm, y1, lam).values + spline_fit(sm, y2, lam).values
        np.testing.assert_allclose(combined, separate, atol=1e-8)

    def test_duplicate_sites_aggregate(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 8.0])
        y = np.array([0.0, 4.0, 6.0, 1.0, 3.0, 6.0, 0.0, 2.0])
        sm = SplineSmoother(x)
        f = spline_fit(sm, y, 2.0)
        xu = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        ybar = np.array([0.0, 5.0, 1.0, 3.0, 2.0])
        wsum = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
        ref = oracles.smoothing_spline_reference(xu, ybar, wsum, 2.0)
        np.testing.assert_allclose(f.values, ref, atol=1e-8)
        np.testing.assert_array_equal(f.knots, xu)
        np.testing.assert_array_equal(f.knot_weights, wsum)

    def test_lambda_for_df_hits_target(self):
        x, _, w = _noisy_sites(5)
        sm = SplineSmoother(x, weights=w)
        for df in (2.5, 4.0, 10.0, 25.0):
            lam = sm.lambda_for_df(df)
            assert sm.trace(lam) == pytest.approx(df, abs=1e-6)

    def test_trace_monotone_in_lambda(self):
        x, _, w = _noisy_sites(6)
        sm = SplineSmoother(x, weights=w)
        lams = np.geomspace(1e-6, 1e8, 12)
        traces = [sm.trace(l) for l in lams]
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))
        assert sm.trace(0.0) == pytest.approx(len(x))
        assert sm.trace(math.inf) == pytest.approx(2.0)

    def test_df_out_of_range(self):
        x, _, _ = _noisy_sites(7)
        sm = SplineSmoother(x)
        with pytest.raises(ParameterError):
            sm.lambda_for_df(1.5)
        with pytest.raises(ParameterError):
            sm.lambda_for_df(len(x) + 1.0)

    def test_too_few_distinct_sites(self):
        with pytest.raises(DataError):
            SplineSmoother(np.array([1.0, 2.0, 3.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_weights_not_positive_and_finite(self, bad):
        x, _, w = _noisy_sites(8)
        w[3] = bad
        with pytest.raises(ParameterError, match="weights must be finite and > 0"):
            SplineSmoother(x, weights=w)


def _season_axis(m):
    # a smoother over the home ranks of 4,518 training games at rank_max m,
    # every rank present, and the games' margins
    data = generate_synthetic(4518, seed=11, rank_max=m)
    sm = SplineSmoother(data.home_ranks)
    assert sm.m == m
    return sm, data.movs


def _settings(sm):
    yield "zero", 0.0
    yield "tiny", 1e-9 * float(sm.knots[-1] - sm.knots[0]) ** 3
    for df in (2.2, 4.0, 10.0):
        if df < sm.m:
            yield f"df{df}", sm.lambda_for_df(df)
    yield "inf", math.inf


# Q'W^-1 Q is formed in double, and at large lam its rounding moves the fit
# by up to eps times its condition number, which grows like m^4: 1.4e-9 was
# measured at m = 351, df 2.2, and at most 1.9e-11 elsewhere
_FIT_RTOL = {(351, "df2.2"): 5e-9}
_TRACE_ATOL = 5e-9  # measured at most 1.6e-9 (m = 351, df 2.2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended")
@pytest.mark.parametrize("m", [5, 60, 351])
def test_fit_and_trace_match_long_double_reference(m):
    sm, movs = _season_axis(m)
    ybar = sm.average(movs)
    for name, lam in _settings(sm):
        want, want_trace = oracles.smoothing_spline_longdouble(sm.knots, ybar, sm.knot_weights, lam)
        want = want.astype(float)
        got = spline_fit(sm, movs, lam).values
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        assert err <= _FIT_RTOL.get((m, name), 1e-10), (name, lam, err)
        assert abs(sm.trace(lam) - float(want_trace)) <= _TRACE_ATOL, (name, lam)


class TestEvaluation:
    def test_values_at_knots(self):
        x, y, w = _noisy_sites(10)
        f = _fit(x, y, w, 5.0)
        np.testing.assert_allclose(evaluate_smooth(f, x), f.values, atol=1e-12)

    def test_exact_knot_values_at_integer_knots(self):
        # integer spacings make the weights at a knot exactly 1 and 0
        rng = np.random.default_rng(17)
        for _ in range(40):
            x = np.cumsum(rng.integers(1, 7, rng.integers(4, 40))).astype(float)
            y = rng.normal(0.0, 10.0, len(x))
            f = _fit(x, y, rng.uniform(0.5, 3.0, len(x)), rng.uniform(2.5, len(x)))
            assert np.array_equal(evaluate_smooth(f, x), f.values)

    def test_matches_natural_spline_oracle(self):
        x, y, w = _noisy_sites(11)
        f = _fit(x, y, w, 6.0)
        pts = np.concatenate([np.linspace(-15.0, 120.0, 91), x])
        np.testing.assert_allclose(
            evaluate_smooth(f, pts),
            oracles.natural_spline_eval_reference(f.knots, f.values, pts),
            atol=1e-8,
        )

    def test_linear_extrapolation(self):
        x, y, w = _noisy_sites(12)
        f = _fit(x, y, w, 5.0)
        for tail in (np.array([105.0, 110.0, 115.0]), np.array([-10.0, -6.0, -2.0])):
            vals = evaluate_smooth(f, tail)
            second_diff = vals[2] - 2.0 * vals[1] + vals[0]
            assert abs(second_diff) < 1e-10

    def test_evaluation_weights_reproduce_any_spline(self):
        x, y, w = _noisy_sites(13)
        f = _fit(x, y, w, 7.0)
        pts = np.concatenate([np.linspace(-20.0, 130.0, 61), x[3:9]])
        A = evaluation_weights(f.knots, pts)
        np.testing.assert_allclose(A @ f.values, evaluate_smooth(f, pts), atol=1e-10)
        # column j is the natural interpolating spline through the j-th unit vector
        unit = np.column_stack([
            oracles.natural_spline_eval_reference(f.knots, e, pts) for e in np.eye(len(f.knots))
        ])
        np.testing.assert_allclose(A, unit, atol=1e-12)
        # constants are natural splines, so rows sum to one
        np.testing.assert_allclose(A.sum(axis=1), np.ones(len(pts)), atol=1e-10)

    def test_effective_df_matches_target(self):
        x, y, w = _noisy_sites(14)
        f = _fit(x, y, w, 4.0)
        assert f.effective_df == pytest.approx(4.0, abs=1e-6)
        assert f.lam > 0.0


class TestMinTiesToLarger:
    def test_smallest_score_wins(self):
        assert min_ties_to_larger([(1.0, 5.0), (2.0, 3.0), (3.0, 4.0)]) == (2.0, 3.0)

    def test_ties_go_to_the_larger_setting(self):
        assert min_ties_to_larger([(2.0, 1.0), (3.0, 1.0), (1.0, 1.0)]) == (3.0, 1.0)
        surface = [(10.0, 4.0, 2.0), (20.0, 2.0, 2.0), (20.0, 6.0, 2.0), (20.0, 4.0, 2.0)]
        assert min_ties_to_larger(surface) == (20.0, 6.0, 2.0)

    def test_single_entry(self):
        assert min_ties_to_larger([(7.0, 9.0)]) == (7.0, 9.0)
