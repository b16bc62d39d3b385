"""Gaussian kernel (Nadaraya-Watson) smoothing of MOV over rank space.

The prediction at a query point is the kernel-weighted mean of training
margins, with standard-normal-density weights on scaled distances. There is
one smoother: the rank plane is rotated 45 degrees (x along rank sum, y along
rank difference) and each rotated axis has its own bandwidth. The rotation is
an isometry, so the isotropic smoother is the case sigma_x = sigma_y.

Ranks are integers, so many games share a rank pair. Every computation runs
on distinct pairs (binned kernel estimation, exact here): a training set is
collapsed to its distinct pairs with their game counts n_g and margin sums
S_g, so a weighted mean is sum_g w_g S_g / sum_g w_g n_g, and each distinct
query is predicted once and its result copied to every query at that pair.

Weight ratios are what matter, so weights are computed relative to the
closest pair: exp(-(q - q_min) / 2) with q the squared scaled distance.
That keeps the weight sum >= 1 no matter how far the query sits, instead of
underflowing to 0/0. A query whose distances all overflow takes the margin
of the first training game at its nearest pair, and the call's one
DegeneratePredictionWarning counts such predictions per original query (per
game and bandwidth in the grid searches).

Leave-one-out excludes a game's own pair g from the kernel sums A_g, B_g and
adds the rest of that pair back exactly, pred = (A_g + S_g - y) / (B_g +
n_g - 1). The weights are taken relative to the own pair (shift 0) when it
holds other games, else to the nearest other pair, so no large terms
cancel however small the bandwidth. Prediction, leave-one-out and k-fold
selection all form weights in place on distance blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from .data import Dataset, distinct_pairs, fold_splits, rotate_arrays, training_arrays
from .errors import DataError, ParameterError, warn_fallbacks
from .numerics import min_ties_to_larger

DEFAULT_SIGMA_GRID = tuple(np.geomspace(1.0, 200.0, 40))
DEFAULT_SIGMA_X_GRID = tuple(float(v) for v in range(10, 101, 10))
DEFAULT_SIGMA_Y_GRID = tuple(float(v) for v in range(2, 41, 2))

_QUERY_BLOCK = 1024
_OVERFLOW = "distances overflowed (margin at the smallest distance)"


class _Pairs(NamedTuple):
    """Training games collapsed to their distinct rank pairs: rotated
    coordinates, game counts, margin sums and the first game's margin."""

    x: np.ndarray
    y: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    first_movs: np.ndarray


def _collapse(road, home, movs) -> tuple[_Pairs, np.ndarray]:
    """The distinct pairs of a training set, and each game's pair index."""
    first, inverse, counts = distinct_pairs(road, home)
    x, y = rotate_arrays(road[first], home[first])
    sums = np.bincount(inverse, weights=movs, minlength=len(first))
    return _Pairs(x, y, counts.astype(float), sums, movs[first]), inverse


def _bandwidth_ok(s: float) -> bool:
    # a square that underflows to 0 would turn every distance into inf or nan
    return math.isfinite(s) and s > 0 and s * s > 0


@dataclass(frozen=True)
class KernelSmootherSpec:
    """A fitted (lazy) kernel smoother. Construction validates the arrays (see
    `data.training_arrays`) and the bandwidths (finite and > 0, with a square
    that does not underflow), and collapses the games to `pairs`. The
    per-game arrays are kept as given, for the model file."""

    road_ranks: np.ndarray
    home_ranks: np.ndarray
    movs: np.ndarray
    sigma_x: float
    sigma_y: float
    pairs: _Pairs = field(init=False, repr=False)

    def __post_init__(self):
        sx, sy = float(self.sigma_x), float(self.sigma_y)
        if not (_bandwidth_ok(sx) and _bandwidth_ok(sy)):
            raise ParameterError(
                f"bandwidths must be finite and > 0 with a square that does not "
                f"underflow, got ({sx}, {sy})"
            )
        road, home, movs = training_arrays(self.road_ranks, self.home_ranks, self.movs)
        # frozen: store the coerced values past the dataclass's __setattr__
        vars(self).update(road_ranks=road, home_ranks=home, movs=movs,
                          sigma_x=sx, sigma_y=sy, pairs=_collapse(road, home, movs)[0])


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


def _kernel_sums(q, pairs: _Pairs):
    """Overwrite the shifted squared scaled distances `q` with the weights
    exp(-q / 2) and return each row's (sum w S_g, sum w n_g)."""
    q *= -0.5
    np.exp(q, out=q)
    return q @ pairs.sums, q @ pairs.counts


def _weighted_means(q, pairs: _Pairs, fallbacks: Counter, query_counts):
    """Kernel-weighted mean margins, one per row of squared scaled distances
    `q` to the training pairs; `q` is overwritten. A row whose smallest q is
    not finite (its distances overflowed) gets the margin of the first game
    at its nearest pair, and its `query_counts` entry is added to
    `fallbacks`."""
    q_min = q.min(axis=1)
    bad = ~np.isfinite(q_min)
    nearest = pairs.first_movs[np.argmin(q[bad], axis=1)]
    q -= q_min[:, None]
    sums, counts = _kernel_sums(q, pairs)
    means = sums / counts
    means[bad] = nearest
    fallbacks[_OVERFLOW] += int(query_counts[bad].sum())
    return means


def predict_kernel(spec: KernelSmootherSpec, road_rank: float, home_rank: float) -> float:
    """Kernel-weighted mean margin at one rank pair: a batch of one."""
    return float(predict_kernel_arrays(spec, [road_rank], [home_rank])[0])


def predict_kernel_arrays(spec: KernelSmootherSpec, road_ranks, home_ranks) -> np.ndarray:
    """Vectorized predictions, each distinct query pair once, in blocks of
    queries to bound memory; one DegeneratePredictionWarning counts the
    queries whose distances overflowed."""
    r = np.atleast_1d(np.asarray(road_ranks, dtype=float))
    h = np.atleast_1d(np.asarray(home_ranks, dtype=float))
    first, inverse, counts = distinct_pairs(r, h)
    qx, qy = rotate_arrays(r[first], h[first])
    means = np.empty(len(first))
    fallbacks = Counter()
    with np.errstate(over="ignore", invalid="ignore"):  # absurdly distant queries
        for rows, q in _blocks(qx, qy, spec.pairs.x, spec.pairs.y, spec.sigma_x, spec.sigma_y):
            means[rows] = _weighted_means(q, spec.pairs, fallbacks, counts[rows])
    warn_fallbacks("kernel", fallbacks, len(r))
    return means[inverse]


def _grid(values, default, name):
    grid = [float(s) for s in (default if values is None else values)]
    if not grid:
        raise ParameterError(f"{name} grid is empty")
    if not all(_bandwidth_ok(s) for s in grid):
        raise ParameterError(
            f"{name} grid entries must be finite and > 0 with a square that does not "
            f"underflow, got {grid}"
        )
    return grid


def select_sigma_loo(train: Dataset, sigma_grid=None):
    """Pick the isotropic bandwidth by leave-one-out cross-validation.

    Exact O(G^2) summation over the G distinct training pairs: each pair's
    kernel sums over the other pairs, every bandwidth of the grid from one
    block of distances, then the rest of each game's own pair added back.
    Returns (best_sigma, curve) with curve a list of (sigma, rmse) in grid
    order. Ties break toward the larger sigma.
    """
    grid = _grid(sigma_grid, DEFAULT_SIGMA_GRID, "sigma")
    n = len(train)
    if n < 2:
        raise DataError("leave-one-out needs at least 2 games")
    movs = train.movs
    pairs, inverse = _collapse(train.road_ranks, train.home_ranks, movs)
    g = len(pairs.counts)
    a, b = np.empty((len(grid), g)), np.empty((len(grid), g))
    q = np.empty((min(g, _QUERY_BLOCK), g))
    alone = pairs.counts == 1
    fallen = 0
    for rows, d2 in _blocks(pairs.x, pairs.y, pairs.x, pairs.y):
        k = len(d2)
        own = np.arange(rows.start, rows.start + k)
        d2[np.arange(k), own] = np.inf  # the own pair is added back below
        d_min = d2.min(axis=1)
        # a lone game with every other pair overflowed takes the first
        # margin at the nearest other pair, which is never its own
        bad = alone[rows] & ~np.isfinite(d_min)
        nearest = np.argmin(d2[bad], axis=1)
        nearest[nearest == own[bad]] = 1  # all tie at inf and its own pair is pair 0
        # the nearest weight stays 1 however small sigma is: the own pair's
        # when it holds other games, else the nearest other pair's
        d2 -= np.where(alone[rows] & ~bad, d_min, 0.0)[:, None]
        for gi, sigma in enumerate(grid):
            a[gi, rows], b[gi, rows] = _kernel_sums(np.divide(d2, sigma * sigma, out=q[:k]), pairs)
        # a lone game adds nothing back, so this makes its prediction exact
        a[:, rows][:, bad] = pairs.first_movs[nearest]
        b[:, rows][:, bad] = 1.0
        fallen += int(bad.sum())
    rest_sums = pairs.sums[inverse] - movs  # the other games at each game's pair
    rest_counts = pairs.counts[inverse] - 1.0
    preds = (a[:, inverse] + rest_sums) / (b[:, inverse] + rest_counts)
    preds -= movs
    total_sq = np.einsum("ij,ij->i", preds, preds)
    warn_fallbacks("kernel", Counter({_OVERFLOW: fallen * len(grid)}), n * len(grid))
    curve = [(s, math.sqrt(t / n)) for s, t in zip(grid, total_sq)]
    return min_ties_to_larger(curve)[0], curve


def select_aniso_cv(
    train: Dataset, sigma_x_grid=None, sigma_y_grid=None, folds: int = 10, seed: int = 0
):
    """Pick (sigma_x, sigma_y) by k-fold cross-validation over a grid.

    The fold partition is fixed (a function of size, folds, seed) and shared
    by every bandwidth pair. Each fold's training games are collapsed to
    distinct pairs and its held-out games to distinct queries, whose
    distances serve the whole grid. Returns ((sigma_x, sigma_y), surface)
    where surface lists (sigma_x, sigma_y, rmse) in grid order; RMSE pools
    squared errors over folds. Ties break toward larger sigma_x, then larger
    sigma_y.
    """
    xs = _grid(sigma_x_grid, DEFAULT_SIGMA_X_GRID, "sigma_x")
    ys = _grid(sigma_y_grid, DEFAULT_SIGMA_Y_GRID, "sigma_y")
    n = len(train)
    road, home, movs = train.road_ranks, train.home_ranks, train.movs
    total_sq, fallbacks = np.zeros((len(xs), len(ys))), Counter()
    for tr, held in fold_splits(n, folds, seed):
        pairs, _ = _collapse(road[tr], home[tr], movs[tr])
        first, inverse, counts = distinct_pairs(road[held], home[held])
        qx, qy = rotate_arrays(road[held][first], home[held][first])
        actual = movs[held]
        dx2, dy2 = (np.square(np.subtract.outer(c0, c)) for c0, c in ((qx, pairs.x), (qy, pairs.y)))
        qxs, q = np.empty_like(dx2), np.empty_like(dx2)
        for xi, sx in enumerate(xs):
            np.divide(dx2, sx * sx, out=qxs)
            for yi, sy in enumerate(ys):
                np.add(np.divide(dy2, sy * sy, out=q), qxs, out=q)
                err = _weighted_means(q, pairs, fallbacks, counts)[inverse] - actual
                total_sq[xi, yi] += float(err @ err)
        del dx2, dy2, qxs, q  # before the next fold's blocks are allocated
    warn_fallbacks("kernel", fallbacks, n * len(xs) * len(ys))
    surface = [(sx, sy, math.sqrt(t / n)) for (sx, sy), t in zip(product(xs, ys), total_sq.flat)]
    return min_ties_to_larger(surface)[:2], surface
