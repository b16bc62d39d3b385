"""Quadratic regression of margin of victory on the two team ranks.

The model is

    mov = beta0 + beta_r * road + beta_h * home
          + beta_rr * road^2 + beta_hh * home^2 + noise

with no interaction term (it buys nothing on ranking data of this shape).
Fitting centers and scales the columns internally, then reports
coefficients on the original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, ParameterError
from .numerics import weighted_least_squares

_MIN_GAMES = 6


@dataclass(frozen=True)
class QuadraticFit:
    beta0: float
    beta_r: float
    beta_h: float
    beta_rr: float
    beta_hh: float
    sigma_hat: float
    n_train: int
    hat_diagonal: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "beta0": self.beta0,
            "beta_r": self.beta_r,
            "beta_h": self.beta_h,
            "beta_rr": self.beta_rr,
            "beta_hh": self.beta_hh,
            "sigma_hat": self.sigma_hat,
            "n_train": self.n_train,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuadraticFit":
        """Inverse of `to_dict`; raises ParameterError on a non-finite value,
        or on an interaction term, which this model does not have."""
        if "beta_rh" in d:
            raise ParameterError("the model has no interaction term, got beta_rh")
        keys = ("beta0", "beta_r", "beta_h", "beta_rr", "beta_hh", "sigma_hat")
        values = {key: float(d[key]) for key in keys}
        bad = [key for key, v in values.items() if not math.isfinite(v)]
        if bad:
            raise ParameterError(f"coefficients must be finite, got non-finite {', '.join(bad)}")
        return cls(n_train=int(d["n_train"]), **values)


def fit_quadratic(train: Dataset) -> QuadraticFit:
    """Fit the quadratic MOV model by (unit-weight) least squares.

    Requires at least 6 games. Raises RankDeficientError when the games
    cannot identify the surface (e.g. every game shares one home rank).
    """
    n = len(train)
    if n < _MIN_GAMES:
        raise DataError(f"need at least {_MIN_GAMES} games to fit, got {n}")
    r = train.road_ranks
    h = train.home_ranks
    y = train.movs
    cols = [r, h, r * r, h * h]
    means = [float(c.mean()) for c in cols]
    scales = [float(c.std()) or 1.0 for c in cols]
    design = np.column_stack(
        [np.ones(n)] + [(c - m) / s for c, m, s in zip(cols, means, scales)]
    )
    sol = weighted_least_squares(design, y)
    z = sol.coefficients
    betas = [zj / s for zj, s in zip(z[1:], scales)]
    beta0 = float(z[0] - sum(zj * m / s for zj, m, s in zip(z[1:], means, scales)))
    p = design.shape[1]
    sigma_hat = float(np.sqrt(sol.residual_ss / (n - p)))
    return QuadraticFit(
        beta0=beta0,
        beta_r=float(betas[0]),
        beta_h=float(betas[1]),
        beta_rr=float(betas[2]),
        beta_hh=float(betas[3]),
        sigma_hat=sigma_hat,
        n_train=n,
        hat_diagonal=sol.hat_diagonal,
    )


def predict_quadratic(fit: QuadraticFit, road_rank: float, home_rank: float) -> float:
    """Predicted MOV for one rank pair (positive favors the road team): a
    batch of one."""
    return float(predict_quadratic_arrays(fit, [road_rank], [home_rank])[0])


def predict_quadratic_arrays(fit: QuadraticFit, road_ranks, home_ranks) -> np.ndarray:
    r = np.asarray(road_ranks, dtype=float)
    h = np.asarray(home_ranks, dtype=float)
    return (
        fit.beta0
        + fit.beta_r * r
        + fit.beta_h * h
        + fit.beta_rr * r * r
        + fit.beta_hh * h * h
    )


def studentized_residuals(fit: QuadraticFit, train: Dataset) -> np.ndarray:
    """Internally studentized residuals r_i / (sigma_hat * sqrt(1 - h_i)).

    `train` must be the dataset the fit came from (leverages are stored per
    observation). An observation with leverage 1 is fit exactly and has no
    studentized residual; that raises rather than dividing by zero.
    """
    if fit.hat_diagonal is None:
        raise ParameterError("fit carries no leverages (deserialized fits cannot be studentized)")
    n = len(train)
    if len(fit.hat_diagonal) != n or fit.n_train != n:
        raise ParameterError(
            f"fit was trained on {fit.n_train} games but got a dataset of {n}"
        )
    resid = train.movs - predict_quadratic_arrays(fit, train.road_ranks, train.home_ranks)
    one_minus_h = 1.0 - fit.hat_diagonal
    bad = np.nonzero(one_minus_h <= 1e-12)[0]
    if bad.size:
        raise DataError(f"observation {int(bad[0])} has leverage 1; residual is degenerate")
    return resid / (fit.sigma_hat * np.sqrt(one_minus_h))
