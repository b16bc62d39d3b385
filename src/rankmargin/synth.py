"""Synthetic game generation for benchmarks and tests.

Margins are drawn from a quadratic surface in the two ranks plus Gaussian
noise. Scores are back-filled so that road_score - home_score reproduces the
margin exactly while both scores stay nonnegative (the road score is pinned
at 70 when the road team loses, the home score at 70 when it wins).
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .errors import ParameterError

# Defaults approximate the margin structure of NCAA regular-season games:
# home side favored by a bit under 6 points between equally ranked teams,
# gently quadratic in both ranks, noise near 11.5 points.
DEFAULT_COEFFICIENTS = (-5.8, -0.074, 0.10, 4.7e-5, -1.2e-4)
DEFAULT_NOISE_SIGMA = 11.5
DEFAULT_RANK_MAX = 351
# generating and writing a game takes about 340 bytes at peak, so the most
# games take about 3.4 GB (a season is about 6,000)
MAX_GAMES = 10**7

_START_DATE = np.datetime64("2014-11-01")
_GAMES_PER_DAY = 50


def generate_synthetic(
    n: int,
    coefficients=DEFAULT_COEFFICIENTS,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    rank_max: int = DEFAULT_RANK_MAX,
    seed: int = 0,
    round_margins: bool = False,
) -> Dataset:
    """Generate `n` games with ranks uniform on {1..rank_max}^2.

    The margin for ranks (r, h) is

        mov = b0 + b1 r + b2 h + b3 r^2 + b4 h^2 + Normal(0, noise_sigma)

    with (b0..b4) = `coefficients`. Exact real-valued margins are kept by
    default; `round_margins=True` rounds them to integers (needed when the
    result will be written to CSV, whose schema wants integer scores).
    Identical arguments always produce an identical dataset. More than
    MAX_GAMES games, and a noise or coefficients that would put a score
    beyond 2**53, are rejected.
    """
    if not 1 <= n <= MAX_GAMES:
        raise ParameterError(f"n must be in [1, {MAX_GAMES:,}], got {n}")
    if not 2 <= rank_max <= 2**53:
        raise ParameterError(f"rank_max must be in [2, 2**53], got {rank_max}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    coefficients = tuple(float(c) for c in coefficients)
    if len(coefficients) != 5:
        raise ParameterError(f"expected 5 coefficients, got {len(coefficients)}")
    bad = [f"b{i} = {c}" for i, c in enumerate(coefficients) if not math.isfinite(c)]
    if bad:
        raise ParameterError(f"coefficients must be finite, got {', '.join(bad)}")
    b0, b1, b2, b3, b4 = coefficients

    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, rank_max + 1, size=(n, 2))
    road = ranks[:, 0].astype(float)
    home = ranks[:, 1].astype(float)
    noise = rng.normal(0.0, noise_sigma, size=n) if noise_sigma > 0 else np.zeros(n)
    mov = b0 + b1 * road + b2 * home + b3 * road * road + b4 * home * home + noise
    if round_margins:
        mov = np.rint(mov)
    # the larger score is 70 + |mov|; past 2**53 it is no longer held exactly
    # as a float, so its margin would not survive a CSV round trip
    if not 70.0 + np.abs(mov).max() <= 2.0**53:
        raise ParameterError(
            f"noise_sigma {noise_sigma} and coefficients {coefficients} give scores "
            f"beyond 2**53"
        )

    road_scores = 70.0 + np.maximum(mov, 0.0)
    # one name per distinct rank, shared by every game at that rank
    distinct, which = np.unique(ranks, return_inverse=True)
    names = np.array([f"T{r:03d}" for r in distinct], dtype=object)
    teams = names[which.reshape(ranks.shape)]
    return Dataset(
        dates=_START_DATE + np.arange(n) // _GAMES_PER_DAY,
        home_teams=teams[:, 1],
        road_teams=teams[:, 0],
        home_ranks=home,
        road_ranks=road,
        home_scores=road_scores - mov,
        road_scores=road_scores,
    )
