"""Shared numerical kernels: weighted least squares, smoothing splines, F upper tail,
and the grid-search rule for choosing among scored settings.

The smoothing spline here is the natural cubic kind: it minimizes

    sum_i w_i (y_i - f(x_i))^2 + lam * integral f''(t)^2 dt

over twice continuously differentiable functions. The minimizer is a natural
cubic spline with knots at the distinct data sites. Its knot values f and
interior second derivatives gamma are linked by Q' f = R gamma, where Q'
((m-2) x m) takes second divided differences and R ((m-2) x (m-2)) is
tridiagonal in the knot spacings; the roughness is gamma' R gamma. The fit
is computed in Reinsch's form (Reinsch 1967; Green & Silverman 1994, ch. 2):
with ybar the weighted group means and W the summed weights per site,

    (R + lam Q' W^{-1} Q) gamma = Q' ybar,    f = ybar - lam W^{-1} Q gamma.

The matrix B = R + lam Q' W^{-1} Q is pentadiagonal and positive definite.
It is assembled from elementwise stencils and factored by banded Cholesky,
so a fit is O(m), forms no m x m matrix and makes no BLAS matrix product:
its bits do not depend on the BLAS thread count.

A fitted spline is evaluated by one formula. On the knot interval
[u_i, u_{i+1}] of length h, with t1 = u_{i+1} - x and t2 = x - u_i,

    f(x) = (t1 f_i + t2 f_{i+1}) / h
           + (t1^3 - h^2 t1) gamma_i / (6h) + (t2^3 - h^2 t2) gamma_{i+1} / (6h).

Beyond the boundary knots the cubic terms t^3 drop, so the curve continues
linearly (gamma is 0 at both boundary knots). At a knot the weights of f are
exactly 1 and 0, and with integer spacings those of gamma are exactly 0, so
the knot value comes back unchanged. The same weights, with the interior gamma written as R^{-1} Q' f,
give the value as a linear map of the knot values (`evaluation_weights`).

Smoothness is parameterized by effective degrees of freedom: the trace of the
smoother matrix S(lam) = I - lam W^{-1} Q B^{-1} Q', which runs from m
(interpolation, lam = 0) down to 2 (weighted linear fit, lam -> infinity).
Since lam Q' W^{-1} Q = B - R, the trace is 2 + tr(B^{-1} R); with R
tridiagonal that needs only the central bands of B^{-1}, which the backward
recursion of Hutchinson & de Hoog (1985, Numer. Math. 47:99) takes from the
banded Cholesky factor in O(m). Calibrating lam to a df target is a
bisection on log lam.

scipy is imported inside the functions that call it, so a process that fits
no spline, draws no GAM band and takes no F tail never loads it; evaluating
a fitted spline (a GAM `predict`) needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _interval_weights(knots: np.ndarray, xs: np.ndarray):
    """Each query's knot interval i and the weights of f[i], f[i+1], gamma[i]
    and gamma[i+1] in the spline's value there, for knot values f and second
    derivatives gamma. Beyond the boundary knots the cubic terms drop, so the
    curve continues linearly."""
    i = np.clip(np.searchsorted(knots, xs, side="right") - 1, 0, len(knots) - 2)
    h = knots[i + 1] - knots[i]
    t1, t2 = knots[i + 1] - xs, xs - knots[i]
    inside = (xs >= knots[0]) & (xs <= knots[-1])
    c1, c2 = np.where(inside, t1, 0.0), np.where(inside, t2, 0.0)
    return i, t1 / h, t2 / h, c1**3 / (6.0 * h) - h * t1 / 6.0, c2**3 / (6.0 * h) - h * t2 / 6.0


def evaluate_smooth(sf: SmoothFunction, x):
    """Evaluate a SmoothFunction at scalar or array `x`."""
    xs = np.asarray(x, dtype=float)
    i, a1, a2, b1, b2 = _interval_weights(sf.knots, np.atleast_1d(xs))
    f, g = sf.values, sf.second_derivatives
    out = a1 * f[i] + a2 * f[i + 1] + b1 * g[i] + b2 * g[i + 1]
    return float(out[0]) if xs.ndim == 0 else out


def _knot_bands(knots: np.ndarray):
    """The knot-spacing matrices of the natural cubic spline through `knots`.

    Returns (q, r). Row j of Q' ((m-2) x m) holds q[:, j] at columns j, j+1
    and j+2; r is the tridiagonal R ((m-2) x (m-2)) in scipy's lower-banded
    storage.
    """
    h = np.diff(knots)
    q = np.array([1.0 / h[:-1], -1.0 / h[:-1] - 1.0 / h[1:], 1.0 / h[1:]])
    r = np.zeros((2, len(h) - 1))
    r[0] = (h[:-1] + h[1:]) / 3.0
    r[1, :-1] = h[1:-1] / 6.0
    return q, r


def _qt_times(q, y):
    """Q' y along the last axis of `y` (m knot values -> m-2)."""
    return q[0] * y[..., :-2] + q[1] * y[..., 1:-1] + q[2] * y[..., 2:]


def _q_times(q, gamma):
    """Q gamma along the last axis of `gamma` (m-2 -> m knot values)."""
    out = np.zeros(gamma.shape[:-1] + (gamma.shape[-1] + 2,))
    out[..., :-2] += q[0] * gamma
    out[..., 1:-1] += q[1] * gamma
    out[..., 2:] += q[2] * gamma
    return out


def evaluation_weights(knots: np.ndarray, xs) -> np.ndarray:
    """Matrix A with f(xs) = A @ f(knots) for any natural cubic spline.

    Row weights fold in the natural-spline relation between knot values and
    second derivatives, so they are exact for interpolation, smoothing fits,
    and linear extrapolation alike.
    """
    import scipy.linalg

    u = np.asarray(knots, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    i, a1, a2, b1, b2 = _interval_weights(u, xs)
    rows = np.arange(len(xs))
    alpha = np.zeros((len(xs), len(u)))
    alpha[rows, i], alpha[rows, i + 1] = a1, a2
    beta = np.zeros((len(xs), len(u)))  # coefficients of the knots' second derivatives
    beta[rows, i], beta[rows, i + 1] = b1, b2
    # the boundary second derivatives are 0 and the interior ones R^{-1} Q' f
    q, r = _knot_bands(u)
    return alpha + _q_times(q, scipy.linalg.solveh_banded(r, beta[:, 1:-1].T, lower=True).T)


def check_df(df: float, m: int) -> None:
    """Raise ParameterError unless a smoothing spline on m distinct sites (the
    ranks of a GAM term) can have `df` degrees of freedom: 2 to m."""
    if not 2.0 <= df <= m + 1e-9:
        raise ParameterError(f"df per term must be in [2, {m}] for {m} distinct ranks, got {df}")


class SplineSmoother:
    """Reusable smoothing-spline operator for fixed sites and weights.

    Duplicated sites are pre-averaged with summed weights; every weight
    must be finite and > 0. The band matrix B of a smoothing parameter is
    factored once and kept while that parameter is reused, as backfitting
    does.
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
            if not (np.all(w > 0.0) and np.isfinite(w).all()):
                raise ParameterError("weights must be finite and > 0")
        knots, inverse = np.unique(x, return_inverse=True)
        if len(knots) < 4:
            raise DataError(f"need at least 4 distinct x values, got {len(knots)}")
        self.knots = knots
        self.group_index = inverse
        self.knot_weights = np.bincount(inverse, weights=w, minlength=len(knots))
        self._point_weights = w
        m = len(knots)
        self.m = m

        self._q, self._r = _knot_bands(knots)
        a, b, c = self._q
        v = 1.0 / self.knot_weights
        # P = Q' W^{-1} Q, pentadiagonal, in lower-banded storage
        self._p = np.zeros((3, m - 2))
        self._p[0] = a * a * v[:-2] + b * b * v[1:-1] + c * c * v[2:]
        self._p[1, :-1] = b[:-1] * a[1:] * v[1:-2] + c[:-1] * b[1:] * v[2:-1]
        self._p[2, :-2] = c[:-2] * a[2:] * v[2:-2]
        self._factor_lam = self._factor = None
        self._scale3 = float(knots[-1] - knots[0]) ** 3

    def _cholesky(self, lam: float) -> np.ndarray:
        """Lower banded Cholesky factor of B = R + lam P, for finite `lam`."""
        import scipy.linalg

        if lam != self._factor_lam:
            band = lam * self._p
            band[:2] += self._r
            self._factor = scipy.linalg.cholesky_banded(band, lower=True)
            self._factor_lam = lam
        return self._factor

    def average(self, y) -> np.ndarray:
        """Weighted group means of a full-length response vector."""
        y = np.asarray(y, dtype=float)
        sums = np.bincount(self.group_index, weights=self._point_weights * y, minlength=self.m)
        return sums / self.knot_weights

    def trace(self, lam: float) -> float:
        """Trace of the smoother matrix at smoothing parameter `lam`."""
        if lam == 0.0:
            return float(self.m)
        if math.isinf(lam):
            return 2.0
        # tr S = 2 + tr(B^{-1} R), with R tridiagonal. For B = L L', the
        # product L' B^{-1} = L^{-1} is lower triangular, so row j of B^{-1}
        # on and right of the diagonal follows from rows j + 1 and j + 2.
        d, l1, l2 = self._cholesky(lam)
        inv_d2, a, b = (1.0 / (d * d)).tolist(), (l1 / d).tolist(), (l2 / d).tolist()
        r0, r1 = self._r.tolist()
        p0 = p1 = pp0 = total = 0.0  # B^{-1} at (j+1, j+1), (j+1, j+2), (j+2, j+2)
        for j in reversed(range(self.m - 2)):
            s2 = -(a[j] * p1 + b[j] * pp0)
            s1 = -(a[j] * p0 + b[j] * p1)
            s0 = inv_d2[j] - a[j] * s1 - b[j] * s2
            total += r0[j] * s0 + 2.0 * r1[j] * s1
            pp0, p0, p1 = p0, s0, s1
        return 2.0 + total

    def lambda_for_df(self, target_df: float) -> float:
        """Smoothing parameter whose smoother trace matches `target_df`.

        Bisection on log-lambda over [1e-8, 1e8] times the cubed site range,
        extended outward if the target lies beyond the bracket. The two
        boundary targets get their exact limits (0 and inf).
        """
        check_df(target_df, self.m)
        if target_df >= self.m - 1e-12:
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

    def solve(self, ybar: np.ndarray, lam: float):
        """Fitted knot values and second derivatives (0 at the boundary knots)
        for group means `ybar`, along its last axis (one row per response for
        a 2-D `ybar`)."""
        import scipy.linalg

        gamma = np.zeros(ybar.shape)
        if math.isinf(lam):
            return self._linear_fit(ybar), gamma
        rhs = _qt_times(self._q, ybar)
        gamma[..., 1:-1] = scipy.linalg.cho_solve_banded((self._cholesky(lam), True), rhs.T).T
        return ybar - lam * _q_times(self._q, gamma[..., 1:-1]) / self.knot_weights, gamma

    def _linear_fit(self, ybar: np.ndarray) -> np.ndarray:
        w = self.knot_weights
        wsum = w.sum()
        du = self.knots - np.sum(w * self.knots) / wsum
        ybar_w = np.sum(w * ybar, axis=-1, keepdims=True) / wsum
        slope = np.sum(w * du * (ybar - ybar_w), axis=-1, keepdims=True) / np.sum(w * du * du)
        return ybar_w + slope * du


def f_sf(value: float, df1: float, df2: float) -> float:
    """Upper tail P(F > value) of the F distribution, via the regularized
    incomplete beta function of the complementary argument.

    Computing the tail directly keeps its relative accuracy far out, where
    1 - CDF would round to 0 (or to a multiple of 2^-53).
    """
    from scipy.special import betainc

    if df1 <= 0 or df2 <= 0:
        raise ParameterError(f"degrees of freedom must be positive, got {df1}, {df2}")
    if value < 0:
        raise ParameterError(f"value must be nonnegative, got {value}")
    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * value)))
