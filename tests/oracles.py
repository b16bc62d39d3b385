"""Independent reference implementations used to check the library.

Everything here is deliberately written along a different numerical route
than the package: plain-Python loops, scipy reference routines, closed
forms, and quadrature. Test modules import these and compare. Nothing in
this file may import from rankmargin.
"""

from __future__ import annotations

import math
from statistics import pstdev

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, make_smoothing_spline
from scipy.stats import norm

SQRT2 = math.sqrt(2.0)


def rotate_reference(road_rank: float, home_rank: float) -> tuple[float, float]:
    """45-degree rotation via division by sqrt(2) instead of sin/cos."""
    return (
        (road_rank + home_rank) / SQRT2,
        (road_rank - home_rank) / SQRT2,
    )


# ---------------------------------------------------------------------------
# local linear regression


def loess_predict_reference(
    road, home, movs, span: float, query_road: float, query_home: float
):
    """Brute-force local linear prediction.

    Neighborhood search by sorting a plain list of distances, tricube
    weights in scalar arithmetic, and the local system solved with lstsq on
    the uncentered design. Degenerate neighborhoods follow the same policy
    as the library (documented fallbacks) but through separate code.
    """
    n = len(movs)
    sr = pstdev(road) or 1.0
    sh = pstdev(home) or 1.0
    q = math.ceil(span * n)
    dists = [
        math.hypot((road[i] - query_road) / sr, (home[i] - query_home) / sh) for i in range(n)
    ]
    d_max = sorted(dists)[q - 1]
    if d_max == 0.0:
        at_zero = [movs[i] for i in range(n) if dists[i] == 0.0]
        return sum(at_zero) / len(at_zero)
    inside = [i for i in range(n) if dists[i] < d_max]
    if not inside:
        d_min = min(dists)
        nearest = [movs[i] for i in range(n) if dists[i] == d_min]
        return sum(nearest) / len(nearest)
    weights = [(1.0 - (dists[i] / d_max) ** 3) ** 3 for i in inside]
    if len(inside) < 3:
        total = sum(weights)
        return sum(w * movs[i] for w, i in zip(weights, inside)) / total
    design = np.array(
        [[1.0, road[i] - query_road, home[i] - query_home] for i in inside]
    )
    response = np.array([movs[i] for i in inside])
    sw = np.sqrt(np.array(weights))
    coef, _, rank, _ = np.linalg.lstsq(design * sw[:, None], response * sw, rcond=None)
    if rank < 3:
        total = sum(weights)
        return sum(w * movs[i] for w, i in zip(weights, inside)) / total
    return float(coef[0])


# ---------------------------------------------------------------------------
# kernel smoothing


def kernel_predict_reference(
    road, home, movs, query_road: float, query_home: float, sigma=None, sigma_x=None, sigma_y=None
):
    """Direct-summation Nadaraya-Watson with standard normal pdf weights."""
    n = len(movs)
    weights = []
    for i in range(n):
        if sigma is not None:
            d = math.hypot(road[i] - query_road, home[i] - query_home)
            weights.append(norm.pdf(d / sigma))
        else:
            xi, yi = rotate_reference(road[i], home[i])
            x0, y0 = rotate_reference(query_road, query_home)
            d = math.sqrt(((xi - x0) / sigma_x) ** 2 + ((yi - y0) / sigma_y) ** 2)
            weights.append(norm.pdf(d))
    total = math.fsum(weights)
    return math.fsum(w * m for w, m in zip(weights, movs)) / total


def kernel_loo_rmse_reference(road, home, movs, sigma: float) -> float:
    """Leave-one-out RMSE by refitting the direct-sum smoother n times."""
    n = len(movs)
    errors = []
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        pred = kernel_predict_reference(
            [road[j] for j in rest],
            [home[j] for j in rest],
            [movs[j] for j in rest],
            road[i],
            home[i],
            sigma=sigma,
        )
        errors.append((pred - movs[i]) ** 2)
    return math.sqrt(math.fsum(errors) / n)


# ---------------------------------------------------------------------------
# F distribution by quadrature


def f_cdf_reference(value: float, df1: float, df2: float) -> float:
    """CDF of the F distribution integrated numerically.

    Substituting v = u^2 removes the v^(df1/2 - 1) endpoint singularity
    for df1 < 2.
    """
    if value <= 0:
        return 0.0
    log_norm = (
        math.lgamma((df1 + df2) / 2.0)
        - math.lgamma(df1 / 2.0)
        - math.lgamma(df2 / 2.0)
        + (df1 / 2.0) * math.log(df1 / df2)
    )

    def density_of_u(u):
        v = u * u
        log_dens = log_norm + (df1 / 2.0 - 1.0) * math.log(v) - (
            (df1 + df2) / 2.0
        ) * math.log1p(df1 * v / df2)
        return math.exp(log_dens) * 2.0 * u

    result, _ = quad(density_of_u, 0.0, math.sqrt(value), limit=200)
    return result


def student_t3_cdf(t: float) -> float:
    """Closed-form CDF of Student's t with 3 degrees of freedom."""
    s = t / math.sqrt(3.0)
    return 0.5 + (s / (1.0 + s * s) + math.atan(s)) / math.pi


# ---------------------------------------------------------------------------
# natural cubic splines


def smoothing_spline_reference(x, y, weights, lam):
    """scipy's generalized cross-validation smoother at a fixed lambda.

    x must be strictly increasing (aggregate duplicates before calling).
    Returns the fitted values at x.
    """
    spl = make_smoothing_spline(
        np.asarray(x, dtype=float),
        np.asarray(y, dtype=float),
        w=np.asarray(weights, dtype=float),
        lam=lam,
    )
    return spl(np.asarray(x, dtype=float))


def natural_spline_eval_reference(knots, values, points):
    """Evaluate the natural interpolating cubic through (knots, values).

    Inside the knot range this is scipy's natural CubicSpline; beyond it
    the curve continues linearly with the boundary slope (scipy itself
    extrapolates the cubic pieces, so the tails are overridden here).
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    pts = np.asarray(points, dtype=float)
    cs = CubicSpline(knots, values, bc_type="natural")
    out = cs(pts)
    lo, hi = knots[0], knots[-1]
    left = pts < lo
    right = pts > hi
    if left.any():
        out[left] = cs(lo) + cs(lo, 1) * (pts[left] - lo)
    if right.any():
        out[right] = cs(hi) + cs(hi, 1) * (pts[right] - hi)
    return out


def smoothing_spline_longdouble(x, ybar, weights, lam):
    """Fitted values and smoother trace of the natural cubic smoothing spline
    at a fixed lam, in long double.

    x must be strictly increasing, with ybar the group means and weights the
    summed weights. Reinsch's band system (R + lam Q'W^-1 Q) gamma = Q' ybar
    is assembled entry by entry and solved by a banded LDL' elimination;
    f = ybar - lam W^-1 Q gamma. The trace is m - lam * sum_i (W^-1 Q B^-1
    Q')_ii, one solve per unit vector. lam = inf gives the weighted line.
    Returns (fitted values, trace) as long doubles.
    """
    ld = np.longdouble
    u, yb, w = (np.asarray(v, dtype=float).astype(ld) for v in (x, ybar, weights))
    m = len(u)
    if math.isinf(lam):
        ubar = (w * u).sum() / w.sum()
        ymean = (w * yb).sum() / w.sum()
        slope = (w * (u - ubar) * (yb - ymean)).sum() / (w * (u - ubar) ** 2).sum()
        return ymean + slope * (u - ubar), ld(2)
    lam = ld(lam)
    k = m - 2
    h = [u[i + 1] - u[i] for i in range(m - 1)]
    qt = np.zeros((k, m), dtype=ld)
    band = np.zeros((k, k), dtype=ld)
    for j in range(k):
        qt[j, j], qt[j, j + 1], qt[j, j + 2] = 1 / h[j], -1 / h[j] - 1 / h[j + 1], 1 / h[j + 1]
        band[j, j] = (h[j] + h[j + 1]) / 3
        if j + 1 < k:
            band[j, j + 1] = band[j + 1, j] = h[j + 1] / 6
    for i in range(m):  # lam * Q' W^-1 Q, column i of Q' at a time
        rows = [j for j in (i - 2, i - 1, i) if 0 <= j < k]
        for a in rows:
            for b in rows:
                band[a, b] += lam * qt[a, i] * qt[b, i] / w[i]
    lower = np.zeros((k, k), dtype=ld)  # unit lower triangle of band = L D L'
    d = np.zeros(k, dtype=ld)
    for j in range(k):
        near = range(max(0, j - 2), j)
        d[j] = band[j, j] - sum(lower[j, t] ** 2 * d[t] for t in near)
        for i in range(j + 1, min(k, j + 3)):
            lower[i, j] = (band[i, j] - sum(lower[i, t] * lower[j, t] * d[t] for t in near)) / d[j]
    rhs = np.column_stack([qt @ yb, qt])  # Q' ybar, then Q' e_i for every i
    for j in range(k):
        for t in range(max(0, j - 2), j):
            rhs[j] -= lower[j, t] * rhs[t]
    rhs /= d[:, None]
    for j in reversed(range(k)):
        for t in range(j + 1, min(k, j + 3)):
            rhs[j] -= lower[t, j] * rhs[t]
    gamma, binv_qt = rhs[:, 0], rhs[:, 1:]
    fitted = yb - lam * (qt * gamma[:, None]).sum(axis=0) / w
    trace = m - lam * ((qt * binv_qt).sum(axis=0) / w).sum()
    return fitted, trace


# ---------------------------------------------------------------------------
# dense linear algebra


def hat_diagonal_reference(design, weights=None):
    """Leverages from the explicit dense hat matrix X (X'WX)^-1 X'W."""
    X = np.asarray(design, dtype=float)
    w = np.ones(len(X)) if weights is None else np.asarray(weights, dtype=float)
    XtWX = X.T @ (w[:, None] * X)
    H = X @ np.linalg.solve(XtWX, X.T * w[None, :])
    return np.diag(H).copy()
