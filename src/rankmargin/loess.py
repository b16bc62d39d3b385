"""Local linear (LOESS) smoothing of MOV over the two rank coordinates.

Prediction at a query point fits a weighted plane through the nearest
neighbors: the `ceil(span * n)` training points closest in scaled Euclidean
rank distance, weighted by the tricube kernel

    w(d) = (1 - (d / d_max)^3)^3   for d < d_max, else 0

where d_max is the distance to the q-th nearest point. The neighborhood is
open: points at d_max, including ties, get weight zero. Each rank axis is
divided by its scale before distances are taken: `fit_loess` uses the
training standard deviation (1 for a constant axis).

Each distinct query pair is predicted once and its result copied to every
query at that pair (ranks are integers, so queries repeat). The distinct
queries are predicted in blocks, one thread per CPU in the process's affinity
mask (inline, starting no thread, for one block or one CPU), with scratch
allocated by the calling thread: 4 MB per temporary over all threads. For
each block the query-by-training distance matrix is formed, `np.partition`
gives d_max and the third-nearest distance, and the weighted moments of
[1, r, h, r^2, rh, h^2, y, ry, hy], centred on the training means, are taken
one query row at a time. The 3x3 normal equations of each local plane are
then recentred on its query analytically and solved in one batched call after
diagonal equilibration.

A row goes to the exact path instead, an SVD of the weighted local design,
when d_max is 0, when fewer than 3 neighbors lie inside d_max, or when the
condition number of its equilibrated normal equations, times the
cancellation lost in recentring, exceeds COND_LIMIT. The exact path keeps
the documented fallbacks: the mean at the query, the nearest-point mean,
and the weighted mean for a small or collinear neighborhood. It collapses
its neighbors to their distinct rank pairs in rank order, each weighted by
its game count and carrying its mean margin (a `math.fsum`), so
its result depends neither on the order of the training games nor on how
their margins compare: a plane this ill-conditioned would otherwise move
with the order of its sums, by 1e-9 and more. A call emits at
most one DegeneratePredictionWarning, stating how many of its predictions
fell back and why, counting every query at a fallen-back pair.

Every step is computed per query row (elementwise operations, exact order
statistics, one matrix-vector product and one 3x3 solve per row), so a
prediction is bit-for-bit the same whatever other queries share its call or
its block, and however many threads run the blocks. `select_span_cv` forms
each fold's distances and partition once and reuses them for every span of
the grid.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset, distinct_pairs, fold_splits, training_arrays
from .errors import ParameterError, RankDeficientError, warn_fallbacks
from .numerics import min_ties_to_larger, weighted_least_squares

DEFAULT_SPAN_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))

# Elements in one (queries x training points) block temporary: 4 MB of floats.
BLOCK_ELEMENTS = 1 << 19

# Rows whose equilibrated normal equations have a condition number times
# recentring cancellation above this go to the exact SVD path. The fast
# path's distance from the SVD grows as about 1e-15 times that product, so
# at 1e4 it stays near 1e-11, and a design the SVD would call rank deficient
# (singular values 1e-10 apart) is far beyond the limit.
COND_LIMIT = 1e4

_COINCIDENT = "all nearest neighbors at the query (their mean)"
_RING = "all neighbors tied at the boundary distance (nearest-point mean)"
_FEW = "fewer than 3 neighbors inside the bandwidth (weighted mean)"
_COLLINEAR = "collinear neighborhood (weighted mean)"


@dataclass(frozen=True)
class LoessFit:
    """Lazy smoother: holds the training data, all work happens at predict.

    Construction validates the arrays (see `data.training_arrays`), the span
    (in (0, 1], keeping at least 3 points) and the two predictor scales
    (finite and > 0)."""

    road_ranks: np.ndarray
    home_ranks: np.ndarray
    movs: np.ndarray
    span: float
    predictor_scales: tuple[float, float]

    def __post_init__(self):
        road, home, movs = training_arrays(self.road_ranks, self.home_ranks, self.movs)
        span = float(self.span)
        _check_span(span, len(movs))
        scales = tuple(float(s) for s in self.predictor_scales)
        if len(scales) != 2 or not all(math.isfinite(s) and s > 0.0 for s in scales):
            raise ParameterError(f"predictor_scales must be two finite numbers > 0, got {scales}")
        # frozen: store the coerced values past the dataclass's __setattr__
        vars(self).update(road_ranks=road, home_ranks=home, movs=movs,
                          span=span, predictor_scales=scales)

    @property
    def neighborhood_size(self) -> int:
        return math.ceil(self.span * len(self.movs))


def check_span_grid(values):
    """The spans `values` as floats, checked: at least one, each in (0, 1]
    (so finite)."""
    grid = [float(s) for s in values]
    if not grid:
        raise ParameterError("span grid is empty")
    for s in grid:
        if not 0.0 < s <= 1.0:
            raise ParameterError(f"span must be in (0, 1], got {s}")
    return grid


def _check_span(span: float, n: int) -> None:
    """Raise ParameterError unless `span` is in (0, 1] and keeps at least 3
    of `n` points, the fewest a local plane needs."""
    check_span_grid([span])
    if math.ceil(span * n) < 3:
        raise ParameterError(f"span {span} keeps fewer than 3 of {n} points")


def fit_loess(train: Dataset, span: float = 0.3) -> LoessFit:
    """Bind training data and a span, with each rank axis scaled by its
    standard deviation."""
    scales = (float(train.road_ranks.std()) or 1.0, float(train.home_ranks.std()) or 1.0)
    return LoessFit(train.road_ranks, train.home_ranks, train.movs, span, scales)


def predict_loess(fit: LoessFit, road_rank: float, home_rank: float) -> float:
    """Local linear prediction at one rank pair: a batch of one."""
    return float(predict_loess_arrays(fit, [road_rank], [home_rank])[0])


def predict_loess_arrays(fit: LoessFit, road_ranks, home_ranks) -> np.ndarray:
    """Local linear predictions at many rank pairs.

    Falls back to a neighborhood mean where the local plane is
    unidentifiable (coincident, tied, too few or collinear neighbors), with
    one DegeneratePredictionWarning for the call that counts the fallbacks.
    """
    preds, fallbacks = _predict(fit, road_ranks, home_ranks, [fit.neighborhood_size])
    warn_fallbacks("LOESS", fallbacks, preds.shape[1])
    return preds[0]


def _predict(fit: LoessFit, road_ranks, home_ranks, sizes) -> tuple[np.ndarray, Counter]:
    """Predictions at the queries for each neighborhood size in `sizes`.

    Returns a (len(sizes), queries) array and the count of fallbacks by
    reason, counted per query.
    """
    r = np.atleast_1d(np.asarray(road_ranks, dtype=float))
    h = np.atleast_1d(np.asarray(home_ranks, dtype=float))
    # each distinct query once; rows are independent, so copying a result to
    # every query at its pair changes no bit
    first, inverse, repeats = distinct_pairs(r, h)
    r, h = r[first], h[first]
    n = len(fit.movs)
    mr, mh = fit.road_ranks.mean(), fit.home_ranks.mean()
    cr, ch, y = fit.road_ranks - mr, fit.home_ranks - mh, fit.movs
    feats = np.stack([np.ones(n), cr, ch, cr * cr, cr * ch, ch * ch, y, cr * y, ch * y])
    sr, sh = fit.predictor_scales
    # the third-nearest distance is below d_max iff at least 3 points are inside
    kth = sorted({2} | {q - 1 for q in sizes}, reverse=True)
    out = np.empty((len(sizes), len(r)))
    cpus = _cpus()
    rows = max(1, min(len(r), BLOCK_ELEMENTS // (n * cpus)))
    starts = range(0, len(r), rows)
    workers = min(cpus, len(starts))
    # one set of scratch buffers per worker, allocated by this thread: buffers
    # allocated in worker threads stay resident in glibc's per-thread arenas
    scratch = [[np.empty((rows, n)) for _ in range(3)] for _ in range(workers)]

    def block(start):
        """Fills out[:, start:start + rows]; returns fallbacks, a Counter per size."""
        bufs = scratch.pop()  # a running block holds one set; no other block has it
        counts = [Counter() for _ in sizes]
        rb, hb = r[start:start + rows], h[start:start + rows]
        d, w, t = (buf[: len(rb)] for buf in bufs)
        # elementwise as the exact path, d = sqrt(dr*dr + dh*dh), bit for bit
        np.subtract(fit.road_ranks, rb[:, None], out=d)
        d /= sr
        d *= d
        np.subtract(fit.home_ranks, hb[:, None], out=t)
        t /= sh
        t *= t
        d += t
        np.sqrt(d, out=d)
        # nested single-kth partitions, largest first: each one leaves the k
        # smallest distances in front for the next (numpy's multi-kth
        # partition is several times slower)
        np.copyto(t, d)
        order_stats, front = {}, n
        for k in kth:
            t[:, :front].partition(k, axis=1)
            order_stats[k] = t[:, k].copy()
            front = k
        a, b = rb - mr, hb - mh
        for i, q in enumerate(sizes):
            d_max = order_stats[q - 1]
            exact = ~(order_stats[2] < d_max)
            preds = _local_planes(feats, a, b, d, d_max, exact, w, t)
            for j in np.flatnonzero(exact):
                preds[j], why = _predict_exact(fit, q, rb[j], hb[j])
                if why:
                    counts[i][why] += int(repeats[start + j])
            out[i, start:start + len(rb)] = preds
        scratch.append(bufs)
        return counts

    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            counts = list(pool.map(block, starts))
    else:
        counts = list(map(block, starts))
    # merged by size, then query, so the warning text does not depend on blocks
    return out[:, inverse], sum((c[i] for i in range(len(sizes)) for c in counts), Counter())


def _cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _local_planes(feats, a, b, d, d_max, exact, w, t):
    """Fast-path intercepts for one block of queries.

    `a`, `b` are the queries relative to the training means that centre
    `feats`. Rows already marked in `exact` are skipped, and rows the normal
    equations cannot serve accurately are marked there too; the exact path
    predicts both. `w` and `t` are scratch space the shape of `d`.
    """
    np.divide(d, np.where(exact, 1.0, d_max)[:, None], out=w)
    np.multiply(w, w, out=t)
    t *= w
    np.subtract(1.0, t, out=t)
    # points at or beyond d_max have u >= 1 and get weight 0
    np.maximum(t, 0.0, out=t)
    np.multiply(t, t, out=w)
    w *= t
    # one matrix-vector product per row keeps each row's sums independent of
    # the block; a block matrix product would not
    m = np.empty((len(d), feats.shape[0]))
    for j in range(len(d)):
        np.dot(feats, w[j], out=m[j])
    s0, sr, sh, srr, srh, shh, sy, sry, shy = m.T
    g01 = sr - a * s0
    g02 = sh - b * s0
    g11 = (srr - a * sr) - a * g01
    g22 = (shh - b * sh) - b * g02
    gram = np.empty((len(d), 3, 3))
    gram[:, 0, 0] = s0
    gram[:, 0, 1] = gram[:, 1, 0] = g01
    gram[:, 0, 2] = gram[:, 2, 0] = g02
    gram[:, 1, 1] = g11
    gram[:, 1, 2] = gram[:, 2, 1] = (srh - a * sh) - b * g01
    gram[:, 2, 2] = g22
    rhs = np.stack([sy, sry - a * sy, shy - b * sy], axis=1)
    diag = np.stack([s0, g11, g22], axis=1)
    exact |= ~np.all(diag > 0.0, axis=1)
    diag[exact] = 1.0
    scale = 1.0 / np.sqrt(diag)
    gram *= scale[:, :, None] * scale[:, None, :]
    gram[exact] = np.eye(3)
    eig = np.linalg.eigvalsh(gram)
    # each recentred diagonal entry is a difference of terms this much larger
    lost = np.maximum(
        (srr + np.abs(a) * (2.0 * np.abs(sr) + np.abs(a) * s0)) / diag[:, 1],
        (shh + np.abs(b) * (2.0 * np.abs(sh) + np.abs(b) * s0)) / diag[:, 2],
    )
    exact |= ~(eig[:, 0] * COND_LIMIT > eig[:, 2] * lost)
    gram[exact] = np.eye(3)
    coef = np.linalg.solve(gram, (rhs * scale)[:, :, None])[:, 0, 0]
    return coef * scale[:, 0]


def _predict_exact(fit: LoessFit, q: int, road_rank: float, home_rank: float):
    """Scalar prediction by an SVD of the weighted local design, over the
    distinct rank pairs inside d_max in rank order: each pair weighs its
    tricube weight times its game count and carries its mean margin.

    Returns (prediction, fallback reason or None when the local plane was
    fitted).
    """
    sr, sh = fit.predictor_scales
    dr = (fit.road_ranks - road_rank) / sr
    dh = (fit.home_ranks - home_rank) / sh
    d = np.sqrt(dr * dr + dh * dh)
    d_max = np.partition(d, q - 1)[q - 1]
    if d_max == 0.0:
        marks = fit.movs[d == 0.0]
        return math.fsum(marks) / len(marks), _COINCIDENT
    inside = np.flatnonzero(d < d_max)
    if not len(inside):
        # every neighbor ties at d_max (e.g. a query at the center of a ring)
        marks = fit.movs[d == d.min()]
        return math.fsum(marks) / len(marks), _RING
    inside = inside[np.lexsort((fit.home_ranks[inside], fit.road_ranks[inside]))]
    road, home = fit.road_ranks[inside], fit.home_ranks[inside]
    starts = np.flatnonzero(np.r_[True, (road[1:] != road[:-1]) | (home[1:] != home[:-1])])
    counts = np.diff(np.r_[starts, len(inside)])
    marks = fit.movs[inside[starts]]
    for g in np.flatnonzero(counts > 1):
        marks[g] = math.fsum(fit.movs[inside[starts[g]:starts[g] + counts[g]]]) / counts[g]
    u = d[inside[starts]] / d_max
    w = (1.0 - u**3) ** 3 * counts
    if len(starts) < 3:  # fewer than 3 games, or every game on 1 or 2 pairs
        return float(np.average(marks, weights=w)), _FEW if len(inside) < 3 else _COLLINEAR
    design = np.column_stack([np.ones(len(starts)), road[starts] - road_rank, home[starts] - home_rank])
    try:
        sol = weighted_least_squares(design, marks, w)
    except RankDeficientError:
        return float(np.average(marks, weights=w)), _COLLINEAR
    # design is centered at the query, so the intercept is the prediction
    return float(sol.coefficients[0]), None


def select_span_cv(
    train: Dataset,
    span_grid=None,
    folds: int = 10,
    seed: int = 0,
):
    """Choose the span by k-fold cross-validation.

    One fold partition (a function of size, folds, and seed only) is shared
    by every span so the curve is comparable across the grid; each fold's
    distances are computed once for the whole grid. Returns
    (best_span, curve) where curve is a list of (span, rmse) in grid order;
    rmse pools squared errors over all folds before the square root. Ties
    break toward the larger span.
    """
    grid = check_span_grid(DEFAULT_SPAN_GRID if span_grid is None else span_grid)
    n = len(train)
    splits = fold_splits(n, folds, seed)
    smallest_train = min(len(tr) for tr, _ in splits)
    for s in grid:
        _check_span(s, smallest_train)
    total_sq = [0.0] * len(grid)
    fallbacks = Counter()
    for tr_idx, held_out in splits:
        part = fit_loess(train.subset(tr_idx), grid[0])
        preds, dropped = _predict(
            part,
            train.road_ranks[held_out],
            train.home_ranks[held_out],
            [math.ceil(s * len(tr_idx)) for s in grid],
        )
        fallbacks += dropped
        for i, row in enumerate(preds):
            err = row - train.movs[held_out]
            total_sq[i] += float(err @ err)
    warn_fallbacks("LOESS", fallbacks, n * len(grid))
    curve = [(s, math.sqrt(t / n)) for s, t in zip(grid, total_sq)]
    return min_ties_to_larger(curve)[0], curve
