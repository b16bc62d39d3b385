"""Gaussian kernel (Nadaraya-Watson) smoothing of MOV over rank space.

The prediction at a query point is the kernel-weighted mean of training
margins, with standard-normal-density weights on scaled distances. There is
one smoother: the rank plane is rotated 45 degrees (x along rank sum, y along
rank difference) and each rotated axis has its own bandwidth. The rotation is
an isometry, so the isotropic smoother is the case sigma_x = sigma_y.

Kernel sums are evaluated on the rank lattice. With s = r + h = x sqrt 2 and
d = r - h = y sqrt 2, the weight factors exactly into one term per axis,
exp(-(s - s')^2 / (4 sigma_x^2)) * exp(-(d - d')^2 / (4 sigma_y^2)). Ranks
are integers, so the training games bin exactly onto a sparse lattice A
(binned kernel estimation, exact here): a CSR matrix with one column per
distinct training s and one row per distinct training d, margin sums stacked
over game counts. Queries with distinct sums u and differences v need one
exp table per axis, Tx (u by s) and Ty (v by d), each row shifted by its
query's nearest training value so that factor is exactly 1, and one sparse
product C = A @ Tx^T per sigma_x. Sorted by (u, v), each run of queries that
share a u contracts that u's row of C with the Ty rows of its v's, for every
(sigma_x, sigma_y) of a grid at once, giving each query's margin sum F_S and
game count F_N; the prediction is F_S / F_N. Every sum runs in an order
fixed by the lattice and the query (a row's cells in turn, one einsum dot
per query), so a query's result does not depend on the other queries of its
call, nor a bandwidth pair's on the rest of the grid.

Leave-one-out needs no second pass: a training game's own pair is at
distance 0 on both axes, so its weight is exactly 1 * 1 and the prediction
without game i is (F_S - y_i) / (F_N - 1).

Two kinds of row take the exact path, a direct sum over the training games
in rotated coordinates with weights relative to the nearest game, row by row:
- a prediction whose nearest game may be far: half its squared scaled
  distance is at least E - ln F_N (E that of the per-axis nearest values),
  and this bound exceeds _NEAR. That covers an F_N that underflows (the
  per-axis nearest values belong to pairs far apart) or is not finite, and
  a query far from the data, where the direct sum rounds q at its own scale
  as the per-game references do. If every distance overflows, the row takes
  the margin of the first training game at the smallest distance;
- a leave-one-out row whose own pair dominates, F_N - 1 < _OWN_SHARE * F_N,
  where the subtraction would cancel (a lone game far from all others).
Each call emits at most one DegeneratePredictionWarning, counting overflow
fallbacks per original query (per game and bandwidth in the grid searches).

`scipy.sparse` is imported when a lattice is built, so a process that builds
no kernel smoother never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .data import Dataset, distinct_pairs, fold_splits, rotate_arrays, training_arrays
from .errors import DataError, ParameterError, warn_fallbacks
from .numerics import min_ties_to_larger

if TYPE_CHECKING:
    from scipy.sparse import csr_array

DEFAULT_SIGMA_GRID = tuple(np.geomspace(1.0, 200.0, 40))
DEFAULT_SIGMA_X_GRID = tuple(float(v) for v in range(10, 101, 10))
DEFAULT_SIGMA_Y_GRID = tuple(float(v) for v in range(2, 41, 2))

_BLOCK = 1 << 19  # elements in one temporary block of the exact path
_CHUNK = 1 << 22  # elements in one chunk's tables: C, Ty, Tx and the product
_NEAR = 4.0  # rows whose nearest game may be farther take the direct sum
_OWN_SHARE = 1e-2  # a leave-one-out row cancels in F_N - 1 below this share
_OVERFLOW = "distances overflowed (margin at the smallest distance)"


class _Lattice(NamedTuple):
    """Training games binned by rank sum s (columns) and difference d (rows),
    margin sums over game counts, plus the games for the exact path."""

    s: np.ndarray  # distinct training sums, ascending
    d: np.ndarray  # distinct training differences, ascending
    a: csr_array  # (2 len(d), len(s))
    road: np.ndarray
    home: np.ndarray
    movs: np.ndarray


def _lattice(road, home, movs) -> _Lattice:
    from scipy.sparse import csr_array

    s, s_idx = np.unique(road + home, return_inverse=True)
    d, d_idx = np.unique(road - home, return_inverse=True)
    cells, game_cell = np.unique(d_idx * len(s) + s_idx, return_inverse=True)
    weights = np.concatenate([np.bincount(game_cell, w, len(cells)) for w in (movs, None)])
    starts = np.searchsorted(cells, np.arange(len(d) + 1) * len(s))  # each d's first cell
    indptr = np.concatenate([starts, starts[1:] + len(cells)])
    a = csr_array((weights, np.tile(cells % len(s), 2), indptr), shape=(2 * len(d), len(s)))
    return _Lattice(s, d, a, road, home, movs)


def _bandwidth_ok(s: float) -> bool:
    # a square that underflows to 0 would turn every distance into inf or nan
    return math.isfinite(s) and s > 0 and s * s > 0


@dataclass(frozen=True)
class KernelSmootherSpec:
    """A fitted (lazy) kernel smoother. Construction validates the arrays (see
    `data.training_arrays`) and the bandwidths (finite and > 0, with a square
    that does not underflow), and bins the games onto `lattice`. The
    per-game arrays are kept as given, for the model file."""

    road_ranks: np.ndarray
    home_ranks: np.ndarray
    movs: np.ndarray
    sigma_x: float
    sigma_y: float
    lattice: _Lattice = field(init=False, repr=False)

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
                          sigma_x=sx, sigma_y=sy, lattice=_lattice(road, home, movs))


def isotropic_smoother(train: Dataset, sigma: float) -> KernelSmootherSpec:
    return KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, sigma, sigma)


def anisotropic_smoother(train: Dataset, sigma_x: float, sigma_y: float) -> KernelSmootherSpec:
    return KernelSmootherSpec(train.road_ranks, train.home_ranks, train.movs, sigma_x, sigma_y)


def _nearest(t, q):
    """The value of the ascending `t` nearest each query value."""
    hi = np.minimum(np.searchsorted(t, q), len(t) - 1)
    lo = np.maximum(hi - 1, 0)
    return np.where(q - t[lo] <= t[hi] - q, t[lo], t[hi])


def _factors(q, t, sigma, out):
    """Fill `out` with one axis of the weights, query values `q` (rows) by
    training values `t` (columns), each row relative to its nearest t."""
    np.subtract.outer(q, t, out=out)
    np.square(out, out=out)
    out -= np.square(q - _nearest(t, q))[:, None]
    out /= -4.0 * sigma * sigma
    np.exp(out, out=out)


def _kernel_sums(lat: _Lattice, u, v, xs, ys):
    """(F_S, F_N) at the distinct query points (u, v) for every bandwidth pair
    of the grid xs by ys: shape (len(xs), len(ys), 2, len(u)). Chunks of the
    sorted queries bound the tables' memory."""
    nx, ny, nd = len(xs), len(ys), len(lat.d)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    sums = np.empty((2 * nx, ny, len(u)))
    chunk = max(1, _CHUNK // (max(len(lat.s), nd) * (2 * nx + ny + 3)))
    if max(len(np.unique(u)), len(np.unique(v))) <= chunk:  # one chunk holds every table
        chunk = max(chunk, len(u))
    with np.errstate(over="ignore", invalid="ignore"):  # absurdly distant queries
        for start in range(0, len(u), chunk):
            q = slice(start, start + chunk)
            us, starts = np.unique(u[q], return_index=True)  # the runs of one u
            vs, qv = np.unique(v[q], return_inverse=True)
            tx, c = np.empty((len(lat.s), len(us))).T, np.empty((len(us), nx, 2, nd))
            for xi, sx in enumerate(xs):  # tx.T is C-ordered, as the product reads it
                _factors(us, lat.s, sx, tx)
                c[:, xi] = (lat.a @ tx.T).reshape(2, nd, -1).transpose(2, 0, 1)
            c, ty = c.reshape(len(us), 2 * nx, nd), np.empty((ny, len(vs), nd))
            for yi, sy in enumerate(ys):
                _factors(vs, lat.d, sy, ty[yi])
            ends = [*starts[1:].tolist(), len(qv)]
            for k, (b, e) in enumerate(zip(starts.tolist(), ends)):
                np.einsum("kd,yld->kyl", c[k], ty[:, qv[b:e]], out=sums[:, :, start + b:start + e])
    return sums.reshape(nx, 2, ny, -1).transpose(0, 2, 1, 3)[..., np.argsort(order)]


def _direct_means(r, h, lat: _Lattice, sigma_x, sigma_y, own=None):
    """The exact path: means at the rank pairs (r, h) by direct sums over the
    training games, leaving out each row's `own` game (leave-one-out) if
    given. Returns (means, fell); a row in `fell` had every distance
    overflow and takes the margin of the first other game at its smallest."""
    x0, y0 = rotate_arrays(r, h)
    x, y = rotate_arrays(lat.road, lat.home)
    means, fell = np.empty(len(x0)), np.zeros(len(x0), dtype=bool)
    step = max(1, _BLOCK // len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(x0), step):
            rows = slice(start, start + step)
            q = np.square(np.subtract.outer(x0[rows], x) / sigma_x)
            q += np.square(np.subtract.outer(y0[rows], y) / sigma_y)
            if own is not None:
                q[np.arange(len(q)), own[rows]] = np.inf
            q_min = q.min(axis=1)
            bad = ~np.isfinite(q_min)
            nearest = np.argmin(q[bad], axis=1)
            if own is not None:  # every distance ties at inf and the own game is game 0
                nearest[nearest == own[rows][bad]] = 1
            q -= q_min[:, None]
            q *= -0.5
            np.exp(q, out=q)
            block = np.einsum("qg,g->q", q, lat.movs) / q.sum(axis=1)  # one dot per row, any block
            block[bad] = lat.movs[nearest]
            means[rows], fell[rows] = block, bad
    return means, fell


def _means(lat: _Lattice, road_ranks, home_ranks, xs, ys):
    """Kernel-weighted means at the query pairs for every bandwidth pair of
    the grid xs by ys, shape (len(xs), len(ys), queries): each distinct pair
    once from its lattice sums, far rows by the exact path. Returns (means,
    overflow fallbacks counted per query)."""
    first, inverse, counts = distinct_pairs(road_ranks, home_ranks)
    r, h = road_ranks[first], home_ranks[first]
    u, v = r + h, r - h
    sums = _kernel_sums(lat, u, v, xs, ys)
    du, dv = u - _nearest(lat.s, u), v - _nearest(lat.d, v)
    fallen = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        means = sums[:, :, 0] / sums[:, :, 1]
        for (xi, sx), (yi, sy) in product(enumerate(xs), enumerate(ys)):
            # a lower bound on half the nearest game's squared scaled distance
            near = np.square(du / (2.0 * sx)) + np.square(dv / (2.0 * sy)) - np.log(sums[xi, yi, 1])
            exact = ~(near <= _NEAR)
            if exact.any():
                means[xi, yi, exact], fell = _direct_means(r[exact], h[exact], lat, sx, sy)
                fallen += int(counts[exact][fell].sum())
    return means[..., inverse], fallen


def predict_kernel(spec: KernelSmootherSpec, road_rank: float, home_rank: float) -> float:
    """Kernel-weighted mean margin at one rank pair: a batch of one."""
    return float(predict_kernel_arrays(spec, [road_rank], [home_rank])[0])


def predict_kernel_arrays(spec: KernelSmootherSpec, road_ranks, home_ranks) -> np.ndarray:
    """Vectorized predictions, each distinct query pair once."""
    r = np.atleast_1d(np.asarray(road_ranks, dtype=float))
    h = np.atleast_1d(np.asarray(home_ranks, dtype=float))
    means, fallen = _means(spec.lattice, r, h, [spec.sigma_x], [spec.sigma_y])
    warn_fallbacks("kernel", {_OVERFLOW: fallen}, len(r))
    return means[0, 0]


def bandwidth_grid(values, name):
    """The bandwidths `values` as floats, checked: at least one, each finite
    and > 0 with a square that does not underflow."""
    grid = [float(s) for s in values]
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

    One lattice evaluation per bandwidth at the distinct training pairs,
    then each game's own weight of exactly 1 taken out. Returns
    (best_sigma, curve) with curve a list of (sigma, rmse) in grid order.
    Ties break toward the larger sigma.
    """
    grid = bandwidth_grid(DEFAULT_SIGMA_GRID if sigma_grid is None else sigma_grid, "sigma")
    n = len(train)
    if n < 2:
        raise DataError("leave-one-out needs at least 2 games")
    lat = _lattice(train.road_ranks, train.home_ranks, train.movs)
    first, pair, _ = distinct_pairs(lat.road, lat.home)
    u, v = lat.road[first] + lat.home[first], lat.road[first] - lat.home[first]
    games = np.arange(n)
    preds = np.empty((len(grid), n))
    fallen = 0
    for gi, sigma in enumerate(grid):
        f_s, f_n = _kernel_sums(lat, u, v, [sigma], [sigma])[0, 0][:, pair]
        rest = f_n - 1.0  # the own pair weighs exactly 1 * 1
        with np.errstate(divide="ignore", invalid="ignore"):
            preds[gi] = (f_s - lat.movs) / rest
        exact = ~(rest >= _OWN_SHARE * f_n)
        if exact.any():
            preds[gi, exact], fell = _direct_means(
                lat.road[exact], lat.home[exact], lat, sigma, sigma, own=games[exact]
            )
            fallen += int(fell.sum())
    preds -= lat.movs
    total_sq = np.einsum("ij,ij->i", preds, preds)
    warn_fallbacks("kernel", {_OVERFLOW: fallen}, n * len(grid))
    curve = [(s, math.sqrt(t / n)) for s, t in zip(grid, total_sq)]
    return min_ties_to_larger(curve)[0], curve


def select_aniso_cv(
    train: Dataset, sigma_x_grid=None, sigma_y_grid=None, folds: int = 10, seed: int = 0
):
    """Pick (sigma_x, sigma_y) by k-fold cross-validation over a grid.

    The fold partition is fixed (a function of size, folds, seed) and shared
    by every bandwidth pair. Each fold's training games form one lattice and
    its held-out games are predicted once per distinct pair. Returns
    ((sigma_x, sigma_y), surface) where surface lists (sigma_x, sigma_y,
    rmse) in grid order; RMSE pools squared errors over folds. Ties break
    toward larger sigma_x, then larger sigma_y.
    """
    xs = bandwidth_grid(DEFAULT_SIGMA_X_GRID if sigma_x_grid is None else sigma_x_grid, "sigma_x")
    ys = bandwidth_grid(DEFAULT_SIGMA_Y_GRID if sigma_y_grid is None else sigma_y_grid, "sigma_y")
    n = len(train)
    road, home, movs = train.road_ranks, train.home_ranks, train.movs
    total_sq = np.zeros((len(xs), len(ys)))
    fallen = 0
    for tr, held in fold_splits(n, folds, seed):
        means, fell = _means(_lattice(road[tr], home[tr], movs[tr]), road[held], home[held], xs, ys)
        for xi, yi in np.ndindex(total_sq.shape):
            err = means[xi, yi] - movs[held]
            total_sq[xi, yi] += float(err @ err)
        fallen += fell
    warn_fallbacks("kernel", {_OVERFLOW: fallen}, n * len(xs) * len(ys))
    surface = [(sx, sy, math.sqrt(t / n)) for (sx, sy), t in zip(product(xs, ys), total_sq.flat)]
    return min_ties_to_larger(surface)[:2], surface
