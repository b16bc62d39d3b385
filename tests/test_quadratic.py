"""Quadratic MOV regression: fitting, prediction, studentized residuals."""

import numpy as np
import pytest

from rankmargin.data import SplitSpec, split
from rankmargin.errors import DataError, ParameterError
from rankmargin.evaluate import pure_error
from rankmargin.quadratic import (
    QuadraticFit,
    fit_quadratic,
    predict_quadratic,
    predict_quadratic_arrays,
    studentized_residuals,
)
from rankmargin.synth import DEFAULT_COEFFICIENTS, generate_synthetic

import oracles

REFERENCE_FIT = QuadraticFit(
    beta0=-5.8,
    beta_r=-0.074,
    beta_h=0.10,
    beta_rr=4.7e-5,
    beta_hh=-1.2e-4,
    sigma_hat=11.5,
    n_train=4518,
)


def test_noiseless_recovery():
    data = generate_synthetic(600, noise_sigma=0.0, seed=0)
    fit = fit_quadratic(data)
    recovered = (fit.beta0, fit.beta_r, fit.beta_h, fit.beta_rr, fit.beta_hh)
    np.testing.assert_allclose(recovered, DEFAULT_COEFFICIENTS, atol=1e-6)
    assert fit.sigma_hat == pytest.approx(0.0, abs=1e-6)


def test_reference_prediction_home_court_pair():
    # equal ranks 100: only the home-court constant and curvature remain
    assert predict_quadratic(REFERENCE_FIT, 100, 100) == pytest.approx(-3.93, abs=0.01)


def test_reference_prediction_extreme_mismatch():
    assert predict_quadratic(REFERENCE_FIT, 1, 351) == pytest.approx(14.441927, abs=1e-9)
    assert predict_quadratic(REFERENCE_FIT, 1, 351) == pytest.approx(14.44, abs=0.01)


def test_zero_coefficients_predict_zero():
    fit = QuadraticFit(0.0, 0.0, 0.0, 0.0, 0.0, sigma_hat=1.0, n_train=10)
    for r, h in ((1, 1), (50, 300), (351, 2)):
        assert predict_quadratic(fit, r, h) == 0.0


def test_predict_arrays_matches_scalar():
    data = generate_synthetic(200, seed=1, rank_max=60)
    fit = fit_quadratic(data)
    preds = predict_quadratic_arrays(fit, data.road_ranks, data.home_ranks)
    for i in (0, 17, 99, 199):
        assert preds[i] == pytest.approx(
            predict_quadratic(fit, data.road_ranks[i], data.home_ranks[i]), abs=1e-10
        )


def test_residuals_sum_to_zero():
    data = generate_synthetic(500, seed=2)
    fit = fit_quadratic(data)
    resid = data.movs - predict_quadratic_arrays(fit, data.road_ranks, data.home_ranks)
    scale = float(np.abs(data.movs).max())
    assert abs(float(resid.sum())) <= 1e-8 * len(data) * scale


def test_constant_shift_moves_intercept_only():
    data = generate_synthetic(400, seed=3, rank_max=80)
    from util import make_dataset

    shifted = make_dataset(
        data.road_ranks, data.home_ranks, data.movs + 9.0, data.dates
    )
    a = fit_quadratic(data)
    b = fit_quadratic(shifted)
    assert b.beta0 - a.beta0 == pytest.approx(9.0, abs=1e-8)
    for field in ("beta_r", "beta_h", "beta_rr", "beta_hh"):
        assert getattr(b, field) == pytest.approx(getattr(a, field), abs=1e-8)


def test_training_sse_at_least_pure_error():
    data = generate_synthetic(800, seed=4, rank_max=25)
    fit = fit_quadratic(data)
    preds = predict_quadratic_arrays(fit, data.road_ranks, data.home_ranks)
    sse = float(np.sum((data.movs - preds) ** 2))
    pe = pure_error(data)
    assert sse >= pe.ss_pe - 1e-8 * max(1.0, pe.ss_pe)


def test_studentized_matches_dense_oracle():
    data = generate_synthetic(300, seed=5, rank_max=90)
    fit = fit_quadratic(data)
    student = studentized_residuals(fit, data)
    r, h = data.road_ranks, data.home_ranks
    design = np.column_stack([np.ones(len(r)), r, h, r * r, h * h])
    hat = oracles.hat_diagonal_reference(design)
    preds = predict_quadratic_arrays(fit, r, h)
    resid = data.movs - preds
    expected = resid / (fit.sigma_hat * np.sqrt(1.0 - hat))
    np.testing.assert_allclose(student, expected, atol=1e-8)


def test_constant_response_residuals_zero():
    from util import make_dataset

    rng = np.random.default_rng(6)
    road = rng.integers(1, 40, 60)
    home = rng.integers(1, 40, 60)
    data = make_dataset(road, home, np.full(60, 3.0))
    fit = fit_quadratic(data)
    resid = data.movs - predict_quadratic_arrays(fit, data.road_ranks, data.home_ranks)
    np.testing.assert_allclose(resid, 0.0, atol=1e-9)


def test_too_few_games():
    data = generate_synthetic(5, seed=8)
    with pytest.raises(DataError):
        fit_quadratic(data)


def test_studentized_requires_hat():
    restored = QuadraticFit.from_dict(REFERENCE_FIT.to_dict())
    data = generate_synthetic(50, seed=9)
    with pytest.raises(ParameterError):
        studentized_residuals(restored, data)


def test_serialization_round_trip():
    data = generate_synthetic(300, seed=10, rank_max=100)
    fit = fit_quadratic(data)
    again = QuadraticFit.from_dict(fit.to_dict())
    assert again.beta0 == fit.beta0
    assert again.beta_hh == fit.beta_hh
    assert again.sigma_hat == fit.sigma_hat
    assert again.n_train == fit.n_train


def test_season_scale_split_fit():
    data = generate_synthetic(6024, seed=11)
    train, valid = split(data, SplitSpec(train_count=4518))
    fit = fit_quadratic(train)
    # signs of the fitted surface match the reference structure
    assert fit.beta0 < 0
    assert fit.beta_r < 0
    assert fit.beta_h > 0
    assert fit.n_train == 4518
    assert 10.5 < fit.sigma_hat < 12.5
