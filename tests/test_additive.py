"""Backfitted additive model and its component confidence bands."""

import dataclasses

import numpy as np
import pytest

from rankmargin import additive
from rankmargin.additive import (
    component_band,
    fit_additive,
    predict_additive,
    predict_additive_arrays,
)
from rankmargin.data import split
from rankmargin.errors import DataError, ParameterError
from rankmargin.evaluate import rmse
from rankmargin.numerics import SplineSmoother, evaluate_smooth, evaluation_weights
from rankmargin.quadratic import fit_quadratic, predict_quadratic_arrays
from rankmargin.synth import generate_synthetic
from util import make_dataset, spline_fit

import oracles


def _plane_data(seed=21, n=1600, noise=1.5):
    rng = np.random.default_rng(seed)
    road = rng.integers(1, 81, n).astype(float)
    home = rng.integers(1, 81, n).astype(float)
    truth = 3.0 - 0.2 * road + 0.25 * home
    movs = truth + rng.normal(0, noise, n)
    return make_dataset(road, home, movs), truth


def test_constant_data():
    rng = np.random.default_rng(0)
    data = make_dataset(
        rng.integers(1, 30, 40), rng.integers(1, 30, 40), np.full(40, 6.5)
    )
    fit = fit_additive(data)
    assert fit.mu == pytest.approx(6.5, abs=1e-12)
    assert fit.converged
    assert fit.iterations_used == 1
    np.testing.assert_allclose(fit.f_road.values, 0.0, atol=1e-9)
    np.testing.assert_allclose(fit.f_home.values, 0.0, atol=1e-9)
    assert predict_additive(fit, 3, 17) == pytest.approx(6.5, abs=1e-9)


def test_components_average_to_zero():
    data = generate_synthetic(700, seed=1, rank_max=60)
    fit = fit_additive(data)
    scale = float(np.abs(data.movs).max())
    fr = evaluate_smooth(fit.f_road, data.road_ranks)
    fh = evaluate_smooth(fit.f_home, data.home_ranks)
    assert abs(float(fr.mean())) <= 1e-6 * scale
    assert abs(float(fh.mean())) <= 1e-6 * scale


def test_prediction_decomposition():
    data = generate_synthetic(300, seed=2, rank_max=40)
    fit = fit_additive(data)
    r, h = 7.0, 23.0
    direct = predict_additive(fit, r, h)
    parts = fit.mu + evaluate_smooth(fit.f_road, r) + evaluate_smooth(fit.f_home, h)
    assert direct == pytest.approx(parts, abs=1e-12)
    # at a training knot the component equals its stored value exactly
    k = fit.f_road.knots[3]
    assert evaluate_smooth(fit.f_road, k) == fit.f_road.values[3]


def test_plane_data_matches_ols_plane():
    data, truth = _plane_data()
    fit = fit_additive(data)
    assert fit.converged
    n = len(data)
    design = np.column_stack([np.ones(n), data.road_ranks, data.home_ranks])
    coef, *_ = np.linalg.lstsq(design, data.movs, rcond=None)
    plane = design @ coef
    gam = predict_additive_arrays(fit, data.road_ranks, data.home_ranks)
    surface_scale = float(np.sqrt(np.mean((truth - truth.mean()) ** 2)))
    assert rmse(gam, plane) <= 0.02 * surface_scale


def test_validation_rmse_close_to_quadratic():
    data = generate_synthetic(2400, seed=31)
    train, valid = split(data, 1800)
    gam = fit_additive(train)
    quad = fit_quadratic(train)
    g = rmse(predict_additive_arrays(gam, valid.road_ranks, valid.home_ranks), valid.movs)
    q = rmse(predict_quadratic_arrays(quad, valid.road_ranks, valid.home_ranks), valid.movs)
    assert abs(g - q) <= 0.02 * q


def test_extrapolation_matches_spline_oracle():
    data = generate_synthetic(500, seed=3, rank_max=50)
    fit = fit_additive(data)
    outside = np.array([55.0, 70.0, 120.0, 0.2])
    ref = oracles.natural_spline_eval_reference(
        fit.f_road.knots, fit.f_road.values, outside
    )
    h0 = 25.0
    for x, expect in zip(outside, ref):
        pred = predict_additive(fit, x, h0)
        fh = evaluate_smooth(fit.f_home, h0)
        assert pred - fit.mu - fh == pytest.approx(expect, abs=1e-8)


def test_non_convergence_flag_and_band_refusal(monkeypatch):
    data = generate_synthetic(400, seed=4, rank_max=40)
    monkeypatch.setattr(additive, "_MAX_ITERATIONS", 1)
    fit = fit_additive(data)
    assert not fit.converged
    assert fit.iterations_used == 1
    with pytest.raises(DataError, match="confidence bands require a converged fit"):
        component_band(fit, "road", np.arange(1.0, 41.0))


def test_insufficient_distinct_ranks():
    rng = np.random.default_rng(5)
    road = np.full(20, 7)
    home = rng.integers(1, 30, 20)
    data = make_dataset(road, home, rng.normal(0, 3, 20))
    with pytest.raises(DataError):
        fit_additive(data)
    with pytest.raises(DataError):
        fit_additive(generate_synthetic(9, seed=6))


def test_parameter_validation():
    data = generate_synthetic(100, seed=7, rank_max=30)
    with pytest.raises(ParameterError):
        component_band(fit_additive(data), "diagonal", np.array([3.0]))


def test_sigma_hat_tracks_noise():
    data = generate_synthetic(3000, seed=8, noise_sigma=7.0)
    fit = fit_additive(data)
    assert fit.sigma_hat == pytest.approx(7.0, rel=0.1)


class TestComponentBand:
    def test_band_contains_estimate_and_scales_with_sigma(self):
        data = generate_synthetic(600, seed=9, rank_max=40)
        fit = fit_additive(data)
        grid = np.arange(1.0, 41.0)
        est, lo, hi = component_band(fit, "home", grid)
        assert np.all(lo <= est) and np.all(est <= hi)
        doubled = dataclasses.replace(fit, sigma_hat=2.0 * fit.sigma_hat)
        est2, lo2, hi2 = component_band(doubled, "home", grid)
        np.testing.assert_allclose(est2, est, atol=1e-12)
        np.testing.assert_allclose(hi2 - est2, 2.0 * (hi - est), atol=1e-10)

    def test_band_width_vanishes_without_noise(self):
        rng = np.random.default_rng(10)
        road = rng.integers(1, 40, 500).astype(float)
        home = rng.integers(1, 40, 500).astype(float)
        movs = 1.0 - 0.2 * road + 0.3 * home
        data = make_dataset(road, home, movs)
        fit = fit_additive(data)
        est, lo, hi = component_band(fit, "road", np.arange(1.0, 41.0))
        assert float(np.max(hi - lo)) < 1e-5

    def test_band_variance_matches_monte_carlo(self):
        # Redraw unit-variance noise many times, push each draw through an
        # independently assembled smoother pipeline, and compare the spread
        # of the component estimate against the reported standard error.
        data = generate_synthetic(240, seed=11, rank_max=25, noise_sigma=3.0)
        fit = fit_additive(data)
        sf = fit.f_road
        knots, w = sf.knots, sf.knot_weights
        m = len(knots)

        smoother = SplineSmoother(knots, w)
        S = np.empty((m, m))
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            S[:, j] = spline_fit(smoother, e, sf.lam).values

        grid = np.array([2.0, 8.0, 13.0, 19.0, 24.0])
        A = evaluation_weights(knots, grid)
        centering = w / w.sum()

        # group membership rebuilt from scratch
        order = np.searchsorted(knots, data.road_ranks)
        n = len(data)
        rng = np.random.default_rng(12)
        draws = 4000
        noise = rng.normal(size=(draws, n))
        group_sums = np.zeros((draws, m))
        np.add.at(group_sums.T, order, noise.T)
        group_means = group_sums / w[None, :]
        estimates = (A - centering[None, :]) @ (S @ group_means.T)
        mc_sd = estimates.std(axis=1)

        est, lo, hi = component_band(fit, "road", grid)
        formula_sd = (hi - est) / (1.96 * fit.sigma_hat)
        np.testing.assert_allclose(mc_sd, formula_sd, rtol=0.07)
