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

import numpy as np

from dataclasses import dataclass, replace

from .data import Dataset
from .errors import DataError, ParameterError
from .numerics import SmoothFunction, SplineSmoother, evaluate_smooth, evaluation_weights

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
    converged: bool
    n_train: int


def _response_scale(y: np.ndarray) -> float:
    # IQR is the convergence yardstick; fall back to the range, then to 1,
    # so degenerate responses still terminate.
    q1, q3 = np.percentile(y, [25.0, 75.0])
    scale = float(q3 - q1)
    if scale == 0.0:
        scale = float(y.max() - y.min())
    return scale if scale > 0.0 else 1.0


def _centered(sf: SmoothFunction, shift: float) -> SmoothFunction:
    # shifting a spline by a constant leaves second derivatives untouched
    return replace(sf, values=sf.values - shift)


def fit_additive(train: Dataset, df_per_term: float = 4.0) -> AdditiveFit:
    """Backfit the two-component additive model.

    Requires at least 10 games and at least 4 distinct ranks on each axis.
    Convergence: the largest absolute change in fitted values over one sweep
    is at most `_TOLERANCE` times the response scale (interquartile range
    of the margins). A fit still moving after `_MAX_ITERATIONS` sweeps is
    returned with converged=False rather than raised.
    """
    n = len(train)
    if n < _MIN_GAMES:
        raise DataError(f"need at least {_MIN_GAMES} games to backfit, got {n}")
    y = train.movs
    smoother_r = SplineSmoother(train.road_ranks)
    smoother_h = SplineSmoother(train.home_ranks)
    lam_r = smoother_r.lambda_for_df(df_per_term)
    lam_h = smoother_h.lambda_for_df(df_per_term)

    mu = float(y.mean())
    fr_at_train = np.zeros(n)
    fh_at_train = np.zeros(n)
    sf_r = sf_h = None
    scale = _response_scale(y)
    fitted_prev = np.full(n, mu)
    converged = False
    iterations_used = 0
    for iterations_used in range(1, _MAX_ITERATIONS + 1):
        sf_r = smoother_r.smooth(y - mu - fh_at_train, lam_r)
        fr_at_train = sf_r.values[smoother_r.group_index]
        shift_r = float(fr_at_train.mean())
        fr_at_train = fr_at_train - shift_r
        sf_r = _centered(sf_r, shift_r)

        sf_h = smoother_h.smooth(y - mu - fr_at_train, lam_h)
        fh_at_train = sf_h.values[smoother_h.group_index]
        shift_h = float(fh_at_train.mean())
        fh_at_train = fh_at_train - shift_h
        sf_h = _centered(sf_h, shift_h)

        fitted = mu + fr_at_train + fh_at_train
        delta = float(np.max(np.abs(fitted - fitted_prev)))
        fitted_prev = fitted
        if delta <= _TOLERANCE * scale:
            converged = True
            break

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
        converged=converged,
        n_train=n,
    )


def check_df_per_term(train: Dataset, df_per_term: float) -> None:
    """Raise ParameterError unless `fit_additive` accepts `df_per_term` on
    `train`: it must lie in [2, m], m the fewer distinct ranks of the two
    axes (the same limit `SplineSmoother.lambda_for_df` enforces)."""
    m = min(len(np.unique(train.road_ranks)), len(np.unique(train.home_ranks)))
    if not 2.0 <= df_per_term <= m + 1e-9:
        raise ParameterError(
            f"df per term must be in [2, {m}] for {m} distinct ranks, got {df_per_term}"
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

    Returns (estimate, lower, upper) arrays. Refuses non-converged fits:
    the band linearizes around the final sweep, which is meaningless if the
    sweeps were still moving.
    """
    if not fit.converged:
        raise DataError("confidence bands require a converged fit")
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
    rho = smoother.fitted_values(rows / w, sf.lam) * w
    # Var(group mean k) = sigma^2 / w_k under unit-weight training games
    se = fit.sigma_hat * np.sqrt(np.sum(rho * rho / w, axis=1))
    estimate = evaluate_smooth(sf, grid)
    half = 1.96 * se
    return estimate, estimate - half, estimate + half
