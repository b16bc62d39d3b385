"""Seeded benchmark inputs and independent reference computations.

Nothing here imports rankmargin. The reference numerics take a different
route from the package (plain group-bys, `numpy.linalg.lstsq`, direct
kernel sums, batched normal equations for LOESS, scipy splines) so that the
benchmark can check the program's outputs against values it did not compute.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

GAMES = 6024
TRAIN_COUNT = round(0.75 * GAMES)  # the report's default train size, 4518
FOLDS = 5
SPAN_GRID = (0.3, 0.5)
NOISE = 11.5
# b0 + b_road r + b_home h + b_rr r^2 + b_hh h^2 in rank units: the package's
# default synthetic surface with both curvature terms four times larger, so
# that at rank_max 351 span 0.3 beats span 0.5 in CV by a wide margin.
TRUTH = (-5.8, -0.074, 0.10, 4 * 4.7e-5, 4 * -1.2e-4)
MAX_DRAWS = 50

_START = dt.date(2014, 11, 1)
_GAMES_PER_DAY = 50
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Season:
    """One generated season: parallel arrays plus the CSV text the program reads.

    `draws` counts the draws taken; `span_curve` is the span CV curve of the
    draw that was kept.
    """

    road: np.ndarray
    home: np.ndarray
    movs: np.ndarray
    draws: int
    span_curve: list

    def csv_text(self, stop=None) -> str:
        lines = ["date,home_team,road_team,home_rank,road_rank,home_score,road_score"]
        for i in range(len(self.movs) if stop is None else stop):
            r, h, m = int(self.road[i]), int(self.home[i]), int(self.movs[i])
            road_score = 70 + max(m, 0)
            day = _START + dt.timedelta(days=i // _GAMES_PER_DAY)
            lines.append(f"{day},T{h:03d},T{r:03d},{h},{r},{road_score - m},{road_score}")
        return "\n".join(lines) + "\n"


def generate(seed: int, rank_max: int, target_span: float) -> Season:
    """The season for (seed, rank_max) on which span CV picks `target_span`.

    Ranks are uniform on 1..rank_max; margins are the TRUTH surface plus
    +-NOISE with a random sign, rounded to whole points. A two-point noise
    law has the variance of N(0, NOISE^2) but a constant square, so every
    model's validation RMSE stays near NOISE on every seed. Draws whose span
    CV (independently computed, same folds as the report) picks the other
    span are discarded, so the LOESS neighbourhood size, and with it the cost
    of a report call, is the same on every seed of a workload.
    """
    for draw in range(MAX_DRAWS):
        rng = np.random.default_rng([seed, rank_max, draw])
        road = rng.integers(1, rank_max + 1, GAMES).astype(float)
        home = rng.integers(1, rank_max + 1, GAMES).astype(float)
        b0, br, bh, brr, bhh = TRUTH
        truth = b0 + br * road + bh * home + brr * road * road + bhh * home * home
        movs = np.rint(truth + NOISE * rng.choice([-1.0, 1.0], GAMES))
        t = slice(0, TRAIN_COUNT)  # the report tunes on the chronological split
        curve = span_cv(road[t], home[t], movs[t], SPAN_GRID, FOLDS, fold_seed=0)
        if argmin_larger(curve) == target_span:
            return Season(road, home, movs, draw + 1, curve)
    raise RuntimeError(f"no season with CV span {target_span} in {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# reading the CSV back and the documented split rules


def parse_csv(text: str):
    """(dates, road, home, movs) from the program's CSV schema."""
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    dates = [row[0] for row in rows]
    home = np.array([float(row[3]) for row in rows])
    road = np.array([float(row[4]) for row in rows])
    movs = np.array([float(row[6]) - float(row[5]) for row in rows])
    return dates, road, home, movs


def report_partitions(dates, seed: int = 0, partitions: int = 3):
    """(train, valid) index arrays: partition 1 takes the earliest games (ties by
    input order); partition j > 1 is a random split seeded with seed + j - 1."""
    n = len(dates)
    orders = [np.array(sorted(range(n), key=lambda i: (dates[i], i)))]
    for j in range(2, partitions + 1):
        orders.append(np.random.default_rng(seed + j - 1).permutation(n))
    return [(o[:TRAIN_COUNT], o[TRAIN_COUNT:]) for o in orders]


def argmin_larger(curve):
    """Grid value with the smallest error; ties go to the larger value.

    `curve` holds (value, error) pairs; a value may be a tuple, compared
    lexicographically.
    """
    return min(curve, key=lambda ve: (ve[1], _negated(ve[0])))[0]


def _negated(v):
    return tuple(-x for x in v) if isinstance(v, tuple) else -v


# ---------------------------------------------------------------------------
# reference numerics


def pure_error(road, home, movs):
    """(rmse or None, ss, df, groups) by grouping games on their rank pair."""
    groups: dict[tuple[float, float], list[float]] = {}
    for r, h, m in zip(road, home, movs):
        groups.setdefault((r, h), []).append(m)
    ss = 0.0
    for vals in groups.values():
        mean = sum(vals) / len(vals)
        ss += sum((v - mean) ** 2 for v in vals)
    df = len(movs) - len(groups)
    return (math.sqrt(ss / df) if df > 0 else None), ss, df, len(groups)


def quadratic_design(road, home):
    return np.column_stack([np.ones(len(road)), road, home, road * road, home * home])


def quadratic_fit(road, home, movs):
    coef, *_ = np.linalg.lstsq(quadratic_design(road, home), movs, rcond=None)
    return coef


def rmse(pred, actual) -> float:
    d = np.asarray(pred) - np.asarray(actual)
    return float(np.sqrt(np.mean(d * d)))


def kernel_predict(tr_r, tr_h, tr_y, q_r, q_h, sigma_x, sigma_y, rotated, block=256):
    """Nadaraya-Watson mean with Gaussian weights, summed directly.

    With `rotated`, distances are taken in the frame x = (r + h)/sqrt 2,
    y = (r - h)/sqrt 2; otherwise on the plain ranks.
    """
    if rotated:
        tx, ty = (tr_r + tr_h) / _SQRT2, (tr_r - tr_h) / _SQRT2
        qx, qy = (q_r + q_h) / _SQRT2, (q_r - q_h) / _SQRT2
    else:
        tx, ty, qx, qy = tr_r, tr_h, q_r, q_h
    out = np.empty(len(qx))
    for s in range(0, len(qx), block):
        z = ((qx[s:s + block, None] - tx) / sigma_x) ** 2 + ((qy[s:s + block, None] - ty) / sigma_y) ** 2
        w = np.exp(-0.5 * (z - z.min(axis=1, keepdims=True)))
        out[s:s + block] = (w @ tr_y) / w.sum(axis=1)
    return out


def loess_predict(tr_r, tr_h, tr_y, spans, q_r, q_h, scales=None, block=64):
    """Local linear fits with tricube weights, one row of predictions per span.

    The neighbourhood of a query is the ceil(span * n) nearest training games
    in rank distance scaled by `scales` (default: each axis's population
    standard deviation); games at the q-th distance get weight zero. Each fit
    solves the 3x3 weighted normal equations of [1, dr, dh], whose intercept
    is the prediction. Raises on a neighbourhood that needs the program's
    documented fallbacks, which these inputs never reach.
    """
    n = len(tr_y)
    ks = [math.ceil(s * n) for s in spans]
    sr, sh = scales if scales is not None else (np.std(tr_r) or 1.0, np.std(tr_h) or 1.0)
    out = np.empty((len(spans), len(q_r)))
    for s in range(0, len(q_r), block):
        dr = tr_r - q_r[s:s + block, None]
        dh = tr_h - q_h[s:s + block, None]
        d = np.hypot(dr / sr, dh / sh)
        kth = np.partition(d, [k - 1 for k in ks], axis=1)
        for si, k in enumerate(ks):
            d_max = kth[:, k - 1:k]
            u = d / d_max
            inside = u < 1.0
            if not (d_max > 0).all() or (inside.sum(axis=1) < 3).any():
                raise ValueError("degenerate LOESS neighbourhood")
            w = np.where(inside, 1.0 - u * u * u, 0.0)
            w = w * w * w
            wr, wh = w * dr, w * dh
            g = np.empty((len(d), 3, 3))
            g[:, 0, 0] = w.sum(axis=1)
            g[:, 0, 1] = g[:, 1, 0] = wr.sum(axis=1)
            g[:, 0, 2] = g[:, 2, 0] = wh.sum(axis=1)
            g[:, 1, 1] = (wr * dr).sum(axis=1)
            g[:, 1, 2] = g[:, 2, 1] = (wr * dh).sum(axis=1)
            g[:, 2, 2] = (wh * dh).sum(axis=1)
            rhs = np.stack([w @ tr_y, wr @ tr_y, wh @ tr_y], axis=1)
            out[si, s:s + block] = np.linalg.solve(g, rhs[:, :, None])[:, 0, 0]
    return out


def span_cv(road, home, movs, spans, folds, fold_seed):
    """Pooled k-fold CV RMSE per span, on the report's fold partition: a
    seeded permutation of the positions split into k consecutive chunks."""
    n = len(movs)
    assignments = np.array_split(np.random.default_rng(fold_seed).permutation(n), folds)
    total = np.zeros(len(spans))
    for held in assignments:
        tr = np.setdiff1d(np.arange(n), held)
        pred = loess_predict(road[tr], home[tr], movs[tr], spans, road[held], home[held])
        total += ((pred - movs[held]) ** 2).sum(axis=1)
    return [(s, math.sqrt(t / n)) for s, t in zip(spans, total)]


def natural_spline(knots, values, x):
    """Natural cubic interpolant through (knots, values), linear beyond them."""
    from scipy.interpolate import CubicSpline  # only the checks need scipy

    cs = CubicSpline(np.asarray(knots), np.asarray(values), bc_type="natural")
    lo, hi = knots[0], knots[-1]
    if x < lo:
        return float(cs(lo) + cs(lo, 1) * (x - lo))
    if x > hi:
        return float(cs(hi) + cs(hi, 1) * (x - hi))
    return float(cs(x))
