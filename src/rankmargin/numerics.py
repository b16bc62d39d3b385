"""Shared numerical kernels: weighted least squares, smoothing splines, F CDF,
and the grid-search rule for choosing among scored settings.

The smoothing spline here is the natural cubic kind: it minimizes

    sum_i w_i (y_i - f(x_i))^2 + lam * integral f''(t)^2 dt

over twice continuously differentiable functions. The minimizer is a natural
cubic spline with knots at the distinct data sites. With value vector f and
interior second derivatives g the two are linked by Q' f = R g (Q and R are
the standard tridiagonal knot-spacing matrices), the roughness penalty is
f' K f with K = Q R^{-1} Q', and the fitted values solve

    f = (W + lam K)^{-1} W ybar

on the distinct sites, where ybar holds weighted group means. Smoothness is
parameterized by effective degrees of freedom: the trace of the smoother
matrix S(lam) = (W + lam K)^{-1} W, which runs from m (interpolation,
lam = 0) down to 2 (weighted linear fit, lam -> infinity). The trace is
computed from a one-time symmetric eigendecomposition, so calibrating lam to
a df target by bisection costs O(m) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import betainc

from .errors import DataError, ParameterError, RankDeficientError

# Relative singular-value cutoff below which a design is declared singular.
RANK_TOLERANCE = 1e-10

# Bisection bracket for the smoothing parameter, in units of (site range)^3.
_LAMBDA_BRACKET = (1e-8, 1e8)


def min_ties_to_larger(entries):
    """The entry (*setting, score) with the smallest score; among equal
    scores, the largest setting (tuples compare in order), i.e. the smoothest."""
    best = entries[0]
    for entry in entries[1:]:
        if entry[-1] < best[-1] or (entry[-1] == best[-1] and entry[:-1] > best[:-1]):
            best = entry
    return best


@dataclass(frozen=True)
class WlsSolution:
    """Solution of a weighted least-squares problem.

    Attributes:
        coefficients: fitted coefficient vector (length p).
        hat_diagonal: leverage of each observation, in [0, 1], summing to p.
        residual_ss: weighted residual sum of squares.
    """

    coefficients: np.ndarray
    hat_diagonal: np.ndarray
    residual_ss: float


def weighted_least_squares(design, response, weights=None) -> WlsSolution:
    """Solve min_b sum_i w_i (y_i - x_i b)^2 by orthogonal decomposition.

    Works through the SVD of the row-scaled design rather than the normal
    equations, so conditioning is that of the design itself. Raises
    RankDeficientError when the smallest singular value falls below
    RANK_TOLERANCE times the largest.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise ParameterError(f"design must be 2-D, got shape {X.shape}")
    n, p = X.shape
    if y.shape != (n,):
        raise ParameterError(f"response length {y.shape} does not match {n} rows")
    if n < p:
        raise ParameterError(f"need at least p={p} observations, got {n}")
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ParameterError("weights length does not match design rows")
        if np.any(w < 0):
            raise ParameterError("weights must be nonnegative")
        if np.count_nonzero(w > 0) < p:
            raise ParameterError(f"need at least p={p} strictly positive weights")
    sqrt_w = np.sqrt(w)
    A = X * sqrt_w[:, None]
    b = y * sqrt_w
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOLERANCE * s[0]:
        raise RankDeficientError(
            f"design is rank deficient (singular values {s.max():.3e} .. {s.min():.3e})"
        )
    coef = Vt.T @ ((U.T @ b) / s)
    hat = np.einsum("ij,ij->i", U, U)
    resid = y - X @ coef
    rss = float(np.sum(w * resid * resid))
    return WlsSolution(coefficients=coef, hat_diagonal=hat, residual_ss=rss)


@dataclass(frozen=True)
class SmoothFunction:
    """A fitted natural cubic smoothing spline.

    Between knots the curve is the cubic determined by `values` and
    `second_derivatives`; beyond the boundary knots it continues linearly
    (natural boundary conditions make the second derivative vanish there).
    `lam` may be 0 (interpolation) or math.inf (the linear limit).
    `knot_weights` records the summed fit weight at each knot; confidence
    band machinery needs it to reconstruct the smoother matrix.
    """

    knots: np.ndarray
    values: np.ndarray
    second_derivatives: np.ndarray
    lam: float
    effective_df: float
    knot_weights: np.ndarray

    def __call__(self, x):
        return evaluate_smooth(self, x)


def evaluate_smooth(sf: SmoothFunction, x):
    """Evaluate a SmoothFunction at scalar or array `x`."""
    u, f, g = sf.knots, sf.values, sf.second_derivatives
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    m = len(u)
    out = np.empty_like(xs)

    h0 = u[1] - u[0]
    h_last = u[-1] - u[-2]
    slope_left = (f[1] - f[0]) / h0 - h0 * g[1] / 6.0
    slope_right = (f[-1] - f[-2]) / h_last + h_last * g[-2] / 6.0

    left = xs < u[0]
    right = xs > u[-1]
    mid = ~(left | right)
    out[left] = f[0] + slope_left * (xs[left] - u[0])
    out[right] = f[-1] + slope_right * (xs[right] - u[-1])

    if np.any(mid):
        xm = xs[mid]
        i = np.clip(np.searchsorted(u, xm, side="right") - 1, 0, m - 2)
        h = u[i + 1] - u[i]
        t1 = u[i + 1] - xm
        t2 = xm - u[i]
        out[mid] = (
            (g[i] * t1**3 + g[i + 1] * t2**3) / (6.0 * h)
            + (f[i] / h - g[i] * h / 6.0) * t1
            + (f[i + 1] / h - g[i + 1] * h / 6.0) * t2
        )
    return float(out[0]) if scalar else out


def _knot_matrices(knots: np.ndarray):
    """Build R ((m-2)x(m-2), banded SPD) and Q' ((m-2)xm) for natural splines.

    Returns (r_banded, qt) where r_banded is in scipy lower-banded storage.
    """
    h = np.diff(knots)
    m = len(knots)
    k = m - 2
    qt = np.zeros((k, m))
    rows = np.arange(k)
    qt[rows, rows] = 1.0 / h[:-1]
    qt[rows, rows + 1] = -1.0 / h[:-1] - 1.0 / h[1:]
    qt[rows, rows + 2] = 1.0 / h[1:]
    r_banded = np.zeros((2, k))
    r_banded[0] = (h[:-1] + h[1:]) / 3.0
    r_banded[1, :-1] = h[1:-1] / 6.0
    return r_banded, qt


def _natural_second_derivatives(knots, values):
    """Interior second derivatives of the natural spline through `values`."""
    r_banded, qt = _knot_matrices(knots)
    rhs = qt @ values
    gamma_int = scipy.linalg.solveh_banded(r_banded, rhs, lower=True)
    gamma = np.zeros(len(knots))
    gamma[1:-1] = gamma_int
    return gamma


def evaluation_weights(knots: np.ndarray, xs) -> np.ndarray:
    """Matrix A with f(xs) = A @ f(knots) for any natural cubic spline.

    Row weights fold in the natural-spline relation between knot values and
    second derivatives, so they are exact for interpolation, smoothing fits,
    and linear extrapolation alike.
    """
    u = np.asarray(knots, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    m = len(u)
    G = len(xs)
    alpha = np.zeros((G, m))
    beta = np.zeros((G, m - 2))

    h0 = u[1] - u[0]
    h_last = u[-1] - u[-2]
    for row, x in enumerate(xs):
        if x < u[0]:
            d = x - u[0]
            alpha[row, 0] = 1.0 - d / h0
            alpha[row, 1] = d / h0
            beta[row, 0] = -h0 * d / 6.0
        elif x > u[-1]:
            d = x - u[-1]
            alpha[row, m - 1] = 1.0 + d / h_last
            alpha[row, m - 2] = -d / h_last
            beta[row, m - 3] = h_last * d / 6.0
        else:
            i = min(max(int(np.searchsorted(u, x, side="right") - 1), 0), m - 2)
            h = u[i + 1] - u[i]
            t1 = u[i + 1] - x
            t2 = x - u[i]
            alpha[row, i] = t1 / h
            alpha[row, i + 1] = t2 / h
            # gamma coefficients; boundary gammas are structurally zero
            ci = t1**3 / (6.0 * h) - h * t1 / 6.0
            cj = t2**3 / (6.0 * h) - h * t2 / 6.0
            if 0 < i:
                beta[row, i - 1] = ci
            if i + 1 < m - 1:
                beta[row, i] = cj
    r_banded, qt = _knot_matrices(u)
    # gamma = R^{-1} Q' f, so the beta part contributes beta @ R^{-1} Q'.
    rinv_qt = scipy.linalg.solveh_banded(r_banded, qt, lower=True)
    return alpha + beta @ rinv_qt


class SplineSmoother:
    """Reusable smoothing-spline operator for fixed sites and weights.

    Duplicated sites are pre-averaged with summed weights; zero-weight
    observations are dropped. Construction performs the one-time
    eigendecomposition that makes df calibration and repeated smoothing
    (as in backfitting) cheap.
    """

    def __init__(self, x, weights=None):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) == 0:
            raise ParameterError("x must be a nonempty 1-D array")
        if weights is None:
            w = np.ones(len(x))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != x.shape:
                raise ParameterError("weights must match x in length")
            if np.any(w < 0):
                raise ParameterError("weights must be nonnegative")
        keep = w > 0
        x, w = x[keep], w[keep]
        self._keep = keep
        knots, inverse = np.unique(x, return_inverse=True)
        if len(knots) < 4:
            raise DataError(
                f"need at least 4 distinct x values with positive weight, got {len(knots)}"
            )
        self.knots = knots
        self.group_index = inverse
        self.knot_weights = np.bincount(inverse, weights=w, minlength=len(knots))
        self._point_weights = w
        m = len(knots)
        self.m = m

        r_banded, qt = _knot_matrices(knots)
        self._r_banded = r_banded
        self._qt = qt
        rinv_qt = scipy.linalg.solveh_banded(r_banded, qt, lower=True)
        penalty = qt.T @ rinv_qt  # K = Q R^{-1} Q'
        inv_sqrt_w = 1.0 / np.sqrt(self.knot_weights)
        c = penalty * inv_sqrt_w[:, None] * inv_sqrt_w[None, :]
        eigvals, eigvecs = np.linalg.eigh((c + c.T) / 2.0)
        # K has exactly two zero eigenvalues (constants and linears); scrub
        # the numerical dust so the lam -> inf limit is reachable.
        eigvals = np.where(eigvals > eigvals[-1] * 1e-12, eigvals, 0.0)
        self._eigvals = eigvals
        self._eigvecs = eigvecs
        self._inv_sqrt_w = inv_sqrt_w
        self._scale3 = float(knots[-1] - knots[0]) ** 3

    def average(self, y) -> np.ndarray:
        """Weighted group means of a full-length response vector."""
        y = np.asarray(y, dtype=float)[self._keep]
        sums = np.bincount(self.group_index, weights=self._point_weights * y, minlength=self.m)
        return sums / self.knot_weights

    def trace(self, lam: float) -> float:
        """Trace of the smoother matrix at smoothing parameter `lam`."""
        if lam == 0.0:
            return float(self.m)
        if math.isinf(lam):
            return 2.0
        return float(np.sum(1.0 / (1.0 + lam * self._eigvals)))

    def lambda_for_df(self, target_df: float) -> float:
        """Smoothing parameter whose smoother trace matches `target_df`.

        Bisection on log-lambda over [1e-8, 1e8] times the cubed site range,
        extended outward if the target lies beyond the bracket. The two
        boundary targets get their exact limits (0 and inf).
        """
        m = self.m
        if not 2.0 <= target_df <= m + 1e-9:
            raise ParameterError(
                f"target_df must be in [2, {m}] for {m} distinct sites, got {target_df}"
            )
        if target_df >= m - 1e-12:
            return 0.0
        if target_df <= 2.0 + 1e-12:
            return math.inf
        lo, hi = _LAMBDA_BRACKET[0] * self._scale3, _LAMBDA_BRACKET[1] * self._scale3
        for _ in range(200):
            if self.trace(lo) >= target_df:
                break
            lo /= 10.0
        for _ in range(200):
            if self.trace(hi) <= target_df:
                break
            hi *= 10.0
        log_lo, log_hi = math.log(lo), math.log(hi)
        for _ in range(500):
            mid = 0.5 * (log_lo + log_hi)
            tr = self.trace(math.exp(mid))
            if abs(tr - target_df) <= 1e-9:
                return math.exp(mid)
            if tr > target_df:
                log_lo = mid
            else:
                log_hi = mid
            if log_hi - log_lo < 1e-14:
                break
        return math.exp(0.5 * (log_lo + log_hi))

    def _fitted_knot_values(self, ybar: np.ndarray, lam: float) -> np.ndarray:
        if lam == 0.0:
            return ybar.copy()
        if math.isinf(lam):
            return self._linear_fit(ybar)
        z = self._eigvecs.T @ (np.sqrt(self.knot_weights) * ybar)
        z /= 1.0 + lam * self._eigvals
        return self._inv_sqrt_w * (self._eigvecs @ z)

    def _linear_fit(self, ybar: np.ndarray) -> np.ndarray:
        w = self.knot_weights
        u = self.knots
        wsum = w.sum()
        ubar = float(w @ u) / wsum
        ybar_w = float(w @ ybar) / wsum
        du = u - ubar
        sxx = float(w @ (du * du))
        slope = float(w @ (du * (ybar - ybar_w))) / sxx
        return ybar_w + slope * du

    def smooth(self, y, lam: float) -> SmoothFunction:
        """Fit at a fixed smoothing parameter; `y` has one entry per site."""
        ybar = self.average(y)
        values = self._fitted_knot_values(ybar, lam)
        if math.isinf(lam):
            gamma = np.zeros(self.m)
        else:
            gamma = _natural_second_derivatives(self.knots, values)
        return SmoothFunction(
            knots=self.knots.copy(),
            values=values,
            second_derivatives=gamma,
            lam=lam,
            effective_df=self.trace(lam),
            knot_weights=self.knot_weights.copy(),
        )

    def fit(self, y, target_df: float) -> SmoothFunction:
        return self.smooth(y, self.lambda_for_df(target_df))

    def smoother_matrix(self, lam: float) -> np.ndarray:
        """Dense m x m matrix mapping group means to fitted knot values."""
        if lam == 0.0:
            return np.eye(self.m)
        if math.isinf(lam):
            w = self.knot_weights
            X = np.column_stack([np.ones(self.m), self.knots])
            xtw = X.T * w[None, :]
            return X @ np.linalg.solve(xtw @ X, xtw)
        scaled = self._eigvecs / (1.0 + lam * self._eigvals)[None, :]
        core = scaled @ self._eigvecs.T
        return (self._inv_sqrt_w[:, None] * core) * np.sqrt(self.knot_weights)[None, :]


def fit_smoothing_spline(x, y, weights=None, target_df: float = 4.0) -> SmoothFunction:
    """Fit a natural cubic smoothing spline with a degrees-of-freedom target.

    Args:
        x: sites (duplicates allowed; they are pre-averaged with summed
            weights). At least 4 distinct values required.
        y: responses, same length as x.
        weights: optional nonnegative fit weights (default all ones).
        target_df: desired trace of the smoother matrix, between 2 (linear
            fit) and the number of distinct sites (interpolation).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("x and y must be 1-D arrays of equal length")
    smoother = SplineSmoother(x, weights)
    return smoother.fit(y, target_df)


def f_cdf(value: float, df1: float, df2: float) -> float:
    """CDF of the F distribution via the regularized incomplete beta function.

    Absolute error is at the level of the underlying incomplete-beta
    implementation (well below 1e-10 across the tested range).
    """
    if df1 <= 0 or df2 <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {df1}, {df2}")
    if value < 0:
        raise ParameterError(f"value must be nonnegative, got {value}")
    if value == 0.0:
        return 0.0
    if math.isinf(value):
        return 1.0
    x = df1 * value / (df1 * value + df2)
    return float(betainc(df1 / 2.0, df2 / 2.0, x))
