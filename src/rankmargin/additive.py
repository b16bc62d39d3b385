"""Additive model: MOV = mu + f_road(road rank) + f_home(home rank) + noise.

Both component functions are natural cubic smoothing splines, estimated by
backfitting: each sweep smooths the partial residuals against one rank axis,
recenters that component to mean zero over the training games, then does the
same for the other axis. The smoothing parameter of each axis is calibrated
once, up front, to a degrees-of-freedom target; it depends only on the knot
layout and weights, not on the response, so sweeps reuse it.

Pointwise 95% confidence bands for a component treat the final sweep's
smoother as fixed: the band half-width at a grid point g is
1.96 * sigma_hat * ||row(g)|| where row(g) is the linear map from training
responses to the centered component estimate at g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, ParameterError
from .numerics import SmoothFunction, SplineSmoother, check_df, evaluate_smooth, evaluation_weights

_MIN_GAMES = 10
# convergence: see fit_additive
_TOLERANCE = 1e-6
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class AdditiveFit:
    mu: float
    f_road: SmoothFunction
    f_home: SmoothFunction
    sigma_hat: float
    iterations_used: int
    n_train: int


def _response_scale(y: np.ndarray) -> float:
    # IQR is the convergence yardstick; fall back to the range, then to 1,
    # so degenerate responses still terminate.
    q1, q3 = np.percentile(y, [25.0, 75.0])
    scale = float(q3 - q1)
    if scale == 0.0:
        scale = float(y.max() - y.min())
    return scale if scale > 0.0 else 1.0


def fit_additive(train: Dataset, df_per_term: float = 4.0) -> AdditiveFit:
    """Backfit the two-component additive model.

    Requires at least 10 games and at least 4 distinct ranks on each axis.
    Convergence: the largest absolute change in fitted values over one sweep
    is at most `_TOLERANCE` times the response scale (interquartile range
    of the margins). A fit still moving after `_MAX_ITERATIONS` sweeps
    raises DataError: its components, and the bands linearized around its
    final sweep, would be meaningless.
    """
    n = len(train)
    if n < _MIN_GAMES:
        raise DataError(f"need at least {_MIN_GAMES} games to backfit, got {n}")
    y = train.movs
    smoothers = (SplineSmoother(train.road_ranks), SplineSmoother(train.home_ranks))
    check_df(df_per_term, min(smoother.m for smoother in smoothers))
    lams = [smoother.lambda_for_df(df_per_term) for smoother in smoothers]

    mu = float(y.mean())
    at_train = [np.zeros(n), np.zeros(n)]  # each component at the training games
    solved = [None, None]  # each component's centered knot values and second derivatives
    scale = _response_scale(y)
    fitted_prev = np.full(n, mu)
    for iterations_used in range(1, _MAX_ITERATIONS + 1):
        for k, (smoother, lam) in enumerate(zip(smoothers, lams)):
            values, gamma = smoother.solve(smoother.average(y - mu - at_train[1 - k]), lam)
            values_at_train = values[smoother.group_index]
            # shifting a spline by a constant leaves its second derivatives untouched
            shift = float(values_at_train.mean())
            at_train[k] = values_at_train - shift
            solved[k] = values - shift, gamma

        fitted = mu + at_train[0] + at_train[1]
        delta = float(np.max(np.abs(fitted - fitted_prev)))
        fitted_prev = fitted
        if delta <= _TOLERANCE * scale:
            break
    else:
        raise DataError(f"GAM backfitting did not converge in {_MAX_ITERATIONS} sweeps")

    sf_r, sf_h = (
        SmoothFunction(knots=smoother.knots, values=values, second_derivatives=gamma, lam=lam,
                       effective_df=smoother.trace(lam), knot_weights=smoother.knot_weights)
        for smoother, lam, (values, gamma) in zip(smoothers, lams, solved)
    )
    resid = y - fitted_prev
    # model df: the constant plus each component net of its own constant
    model_df = 1.0 + (sf_r.effective_df - 1.0) + (sf_h.effective_df - 1.0)
    denom = max(1.0, n - model_df)
    sigma_hat = float(np.sqrt(resid @ resid / denom))
    return AdditiveFit(
        mu=mu,
        f_road=sf_r,
        f_home=sf_h,
        sigma_hat=sigma_hat,
        iterations_used=iterations_used,
        n_train=n,
    )


def predict_additive(fit: AdditiveFit, road_rank: float, home_rank: float) -> float:
    """mu + f_road(road) + f_home(home), a batch of one; splines extrapolate linearly."""
    return float(predict_additive_arrays(fit, [road_rank], [home_rank])[0])


def predict_additive_arrays(fit: AdditiveFit, road_ranks, home_ranks) -> np.ndarray:
    r = np.atleast_1d(np.asarray(road_ranks, dtype=float))
    h = np.atleast_1d(np.asarray(home_ranks, dtype=float))
    return fit.mu + evaluate_smooth(fit.f_road, r) + evaluate_smooth(fit.f_home, h)


def component_band(fit: AdditiveFit, which_term: str, grid):
    """Pointwise 95% band for one component over `grid`.

    Returns (estimate, lower, upper) arrays. The band linearizes around the
    final sweep, which fit_additive guarantees has converged.
    """
    if which_term == "road":
        sf = fit.f_road
    elif which_term == "home":
        sf = fit.f_home
    else:
        raise ParameterError(f"which_term must be 'road' or 'home', got {which_term!r}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))

    # Row g of rho = (A - 1 c') S maps the knots' group means to the centered
    # estimate at grid point g. S' = W S W^{-1}, so that row is w times the
    # smooth of (a_g - c) / w, taken as if it were a vector of group means.
    smoother = SplineSmoother(sf.knots, sf.knot_weights)
    w = sf.knot_weights
    rows = evaluation_weights(sf.knots, grid) - w / w.sum()
    rho = smoother.solve(rows / w, sf.lam)[0] * w
    # Var(group mean k) = sigma^2 / w_k under unit-weight training games
    se = fit.sigma_hat * np.sqrt(np.sum(rho * rho / w, axis=1))
    estimate = evaluate_smooth(sf, grid)
    half = 1.96 * se
    return estimate, estimate - half, estimate + half
