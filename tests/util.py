"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from rankmargin.data import Dataset
from rankmargin.numerics import SmoothFunction, SplineSmoother


def make_dataset(road_ranks, home_ranks, movs, dates=None) -> Dataset:
    """Build a Dataset from parallel sequences, back-filling scores.

    Ranks are truncated to integers. Scores are chosen so road - home
    reproduces each margin exactly while both stay nonnegative.
    """
    road = np.trunc(np.asarray(road_ranks, dtype=float))
    home = np.trunc(np.asarray(home_ranks, dtype=float))
    movs = np.asarray(movs, dtype=float)
    if dates is None:
        dates = np.datetime64("2015-01-01") + np.arange(len(movs))
    road_scores = 70.0 + np.maximum(movs, 0.0)
    return Dataset(
        dates=dates,
        home_teams=[f"H{int(h)}" for h in home],
        road_teams=[f"R{int(r)}" for r in road],
        home_ranks=home,
        road_ranks=road,
        home_scores=road_scores - movs,
        road_scores=road_scores,
    )


def spline_fit(sm: SplineSmoother, y, lam: float) -> SmoothFunction:
    """The smoothing spline of `sm` through the full-length response `y` at
    smoothing parameter `lam`."""
    values, gamma = sm.solve(sm.average(y), lam)
    return SmoothFunction(knots=sm.knots.copy(), values=values, second_derivatives=gamma,
                          lam=lam, effective_df=sm.trace(lam),
                          knot_weights=sm.knot_weights.copy())
