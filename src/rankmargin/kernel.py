"""Gaussian kernel (Nadaraya-Watson) smoothing of MOV over rank space.

The prediction at a query point is the kernel-weighted mean of training
margins, with standard-normal-density weights on scaled distances. There is
one smoother: the rank plane is rotated 45 degrees (x along rank sum, y along
rank difference) and each rotated axis has its own bandwidth. The rotation is
an isometry, so the isotropic smoother is the case sigma_x = sigma_y.

Weight ratios are what matter, so weights are computed relative to the
closest point: exp(-(q - q_min) / 2) with q the squared scaled distance.
That keeps the weight sum >= 1 no matter how far the query sits, instead of
underflowing to 0/0. Prediction, leave-one-out and k-fold selection all take
their weighted means from `_weighted_means`, in place on distance blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .data import Dataset, fold_splits, rotate_arrays, training_arrays
from .errors import DataError, ParameterError, warn_fallbacks
from .numerics import min_ties_to_larger

DEFAULT_SIGMA_GRID = tuple(np.geomspace(1.0, 200.0, 40))
DEFAULT_SIGMA_X_GRID = tuple(float(v) for v in range(10, 101, 10))
DEFAULT_SIGMA_Y_GRID = tuple(float(v) for v in range(2, 41, 2))

_QUERY_BLOCK = 1024
_OVERFLOW = "distances overflowed (margin at the smallest distance)"


@dataclass(frozen=True)
class KernelSmootherSpec:
    """A fitted (lazy) kernel smoother. Construction validates the arrays (see
    `data.training_arrays`) and the bandwidths (finite and > 0), and derives
    the rotated training coordinates `rot_x`, `rot_y`."""

    road_ranks: np.ndarray
    home_ranks: np.ndarray
    movs: np.ndarray
    sigma_x: float
    sigma_y: float
    rot_x: np.ndarray = field(init=False, repr=False)
    rot_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sx, sy = float(self.sigma_x), float(self.sigma_y)
        if not (math.isfinite(sx) and sx > 0 and math.isfinite(sy) and sy > 0):
            raise ParameterError(f"bandwidths must be finite and > 0, got ({sx}, {sy})")
        road, home, movs = training_arrays(self.road_ranks, self.home_ranks, self.movs)
        x, y = rotate_arrays(road, home)
        # frozen: store the coerced values past the dataclass's __setattr__
        vars(self).update(road_ranks=road, home_ranks=home, movs=movs,
                          sigma_x=sx, sigma_y=sy, rot_x=x, rot_y=y)


def isotropic_smoother(train: Dataset, sigma: float) -> KernelSmootherSpec:
    return KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, sigma, sigma)


def anisotropic_smoother(train: Dataset, sigma_x: float, sigma_y: float) -> KernelSmootherSpec:
    return KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, sigma_x, sigma_y)


def _blocks(x0, y0, x, y, sigma_x=1.0, sigma_y=1.0):
    """Yield (rows, squared scaled distances) for blocks of rows of the
    points (x0, y0) against the points (x, y), all in one reused buffer."""
    out = np.empty((min(len(x0), _QUERY_BLOCK), len(x)))
    scratch = np.empty_like(out)
    for start in range(0, len(x0), _QUERY_BLOCK):
        rows = slice(start, start + _QUERY_BLOCK)
        q, t = out[: len(x0[rows])], scratch[: len(x0[rows])]
        np.subtract.outer(x0[rows], x, out=q)
        q *= q
        q /= sigma_x * sigma_x
        np.subtract.outer(y0[rows], y, out=t)
        t *= t
        t /= sigma_y * sigma_y
        q += t
        yield rows, q


def _weighted_means(q, marks, fallbacks: Counter):
    """Kernel-weighted means of `marks`, one per row of squared scaled
    distances `q`, which is overwritten with the weights. A row whose
    smallest q is not finite (its distances overflowed) gets the mark at its
    smallest q and is counted in `fallbacks`."""
    q_min = q.min(axis=1)
    bad = ~np.isfinite(q_min)
    nearest = marks[np.argmin(q[bad], axis=1)]
    q -= q_min[:, None]
    q *= -0.5
    np.exp(q, out=q)
    means = (q @ marks) / q.sum(axis=1)
    means[bad] = nearest
    fallbacks[_OVERFLOW] += int(bad.sum())
    return means


def predict_kernel(spec: KernelSmootherSpec, road_rank: float, home_rank: float) -> float:
    """Kernel-weighted mean margin at one rank pair: a batch of one."""
    return float(predict_kernel_arrays(spec, [road_rank], [home_rank])[0])


def predict_kernel_arrays(spec: KernelSmootherSpec, road_ranks, home_ranks) -> np.ndarray:
    """Vectorized predictions, in blocks of queries to bound memory; one
    DegeneratePredictionWarning counts the queries whose distances overflowed."""
    qx, qy = rotate_arrays(np.atleast_1d(road_ranks), np.atleast_1d(home_ranks))
    out = np.empty(len(qx))
    fallbacks = Counter()
    with np.errstate(over="ignore", invalid="ignore"):  # absurdly distant queries
        for rows, q in _blocks(qx, qy, spec.rot_x, spec.rot_y, spec.sigma_x, spec.sigma_y):
            out[rows] = _weighted_means(q, spec.movs, fallbacks)
    warn_fallbacks("kernel", fallbacks, len(qx))
    return out


def _grid(values, default, name):
    grid = [float(s) for s in (default if values is None else values)]
    if not grid:
        raise ParameterError(f"{name} grid is empty")
    if not all(math.isfinite(s) and s > 0 for s in grid):
        raise ParameterError(f"{name} grid entries must be finite and > 0, got {grid}")
    return grid


def select_sigma_loo(train: Dataset, sigma_grid=None):
    """Pick the isotropic bandwidth by leave-one-out cross-validation.

    Direct O(n^2) summation with per-point exclusion, each block's distances
    serving the whole grid. Returns (best_sigma, curve) with curve a list of
    (sigma, rmse) in grid order. Ties break toward the larger sigma.
    """
    grid = _grid(sigma_grid, DEFAULT_SIGMA_GRID, "sigma")
    n = len(train)
    if n < 2:
        raise DataError("leave-one-out needs at least 2 games")
    x, y = rotate_arrays(train.road_ranks, train.home_ranks)
    marks, q = train.movs, np.empty((min(n, _QUERY_BLOCK), n))
    total_sq, fallbacks = np.zeros(len(grid)), Counter()
    for rows, d2 in _blocks(x, y, x, y):
        k = len(d2)
        d2[np.arange(k), np.arange(rows.start, rows.start + k)] = np.inf  # leave each game out
        # shifted before scaling, the nearest weight stays 1 however small sigma is
        d2 -= d2.min(axis=1)[:, None]
        for gi, sigma in enumerate(grid):
            preds = _weighted_means(np.divide(d2, sigma * sigma, out=q[:k]), marks, fallbacks)
            err = preds - marks[rows]
            total_sq[gi] += float(err @ err)
    warn_fallbacks("kernel", fallbacks, n * len(grid))
    curve = [(s, math.sqrt(t / n)) for s, t in zip(grid, total_sq)]
    return min_ties_to_larger(curve)[0], curve


def select_aniso_cv(
    train: Dataset, sigma_x_grid=None, sigma_y_grid=None, folds: int = 10, seed: int = 0
):
    """Pick (sigma_x, sigma_y) by k-fold cross-validation over a grid.

    The fold partition is fixed (a function of size, folds, seed) and shared
    by every bandwidth pair; each fold's distances serve the whole grid.
    Returns ((sigma_x, sigma_y), surface) where surface lists
    (sigma_x, sigma_y, rmse) in grid order; RMSE pools squared errors over
    folds. Ties break toward larger sigma_x, then larger sigma_y.
    """
    xs = _grid(sigma_x_grid, DEFAULT_SIGMA_X_GRID, "sigma_x")
    ys = _grid(sigma_y_grid, DEFAULT_SIGMA_Y_GRID, "sigma_y")
    n = len(train)
    x, y = rotate_arrays(train.road_ranks, train.home_ranks)
    total_sq, fallbacks = np.zeros((len(xs), len(ys))), Counter()
    for tr, held in fold_splits(n, folds, seed):
        marks, actual = train.movs[tr], train.movs[held]
        dx2, dy2 = (np.square(np.subtract.outer(c[held], c[tr])) for c in (x, y))
        qx, q = np.empty_like(dx2), np.empty_like(dx2)
        for xi, sx in enumerate(xs):
            np.divide(dx2, sx * sx, out=qx)
            for yi, sy in enumerate(ys):
                np.add(np.divide(dy2, sy * sy, out=q), qx, out=q)
                err = _weighted_means(q, marks, fallbacks) - actual
                total_sq[xi, yi] += float(err @ err)
        del dx2, dy2, qx, q  # before the next fold's blocks are allocated
    warn_fallbacks("kernel", fallbacks, n * len(xs) * len(ys))
    surface = [(sx, sy, math.sqrt(t / n)) for (sx, sy), t in zip(product(xs, ys), total_sq.flat)]
    return min_ties_to_larger(surface)[:2], surface
