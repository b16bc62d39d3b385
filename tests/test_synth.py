"""Synthetic game generation: determinism, structure, and scale."""

import datetime

import numpy as np
import pytest

from rankmargin.data import distinct_pairs, write_games
from rankmargin.errors import ParameterError
from rankmargin.synth import DEFAULT_COEFFICIENTS, generate_synthetic


def test_same_seed_identical():
    a = generate_synthetic(400, seed=7)
    b = generate_synthetic(400, seed=7)
    np.testing.assert_array_equal(a.road_ranks, b.road_ranks)
    np.testing.assert_array_equal(a.home_ranks, b.home_ranks)
    np.testing.assert_array_equal(a.movs, b.movs)


def test_same_seed_byte_identical_csv():
    a = write_games(generate_synthetic(300, seed=8, round_margins=True))
    b = write_games(generate_synthetic(300, seed=8, round_margins=True))
    assert a.encode() == b.encode()


def test_different_seed_differs():
    a = generate_synthetic(100, seed=1)
    b = generate_synthetic(100, seed=2)
    assert not np.array_equal(a.movs, b.movs)


def test_replicated_pairs_at_season_scale():
    # 6,024 draws over 351^2 cells collide often enough that well over
    # 100 rank pairs appear at least twice
    for seed in (0, 1, 2):
        data = generate_synthetic(6024, seed=seed)
        _, _, counts = distinct_pairs(data.road_ranks, data.home_ranks)
        replicated = int((counts > 1).sum())
        assert replicated > 100


def test_rank_bounds_and_coverage():
    data = generate_synthetic(5000, seed=3, rank_max=50)
    for arr in (data.road_ranks, data.home_ranks):
        assert arr.min() >= 1
        assert arr.max() <= 50
        assert len(np.unique(arr)) == 50


def test_scores_consistent_with_margin():
    data = generate_synthetic(400, seed=4)
    np.testing.assert_array_equal(data.road_scores - data.home_scores, data.movs)
    assert (data.home_scores >= 0).all() and (data.road_scores >= 0).all()


@pytest.mark.parametrize("round_margins", [False, True])
def test_columns_match_per_game_reference(round_margins):
    # the columns are built without a loop; this is the per-game rule they replace
    data = generate_synthetic(230, seed=12, round_margins=round_margins)
    rng = np.random.default_rng(12)
    ranks = rng.integers(1, 352, size=(230, 2))
    noise = rng.normal(0.0, 11.5, size=230)
    b0, b1, b2, b3, b4 = DEFAULT_COEFFICIENTS
    for i, (r, h) in enumerate(ranks.astype(float)):
        m = b0 + b1 * r + b2 * h + b3 * r * r + b4 * h * h + noise[i]
        m = int(np.rint(m)) if round_margins else m
        road_score = 70 + max(m, 0)
        home_score = road_score - m
        assert data.dates[i] == np.datetime64("2014-11-01") + i // 50
        assert (data.road_teams[i], data.home_teams[i]) == (f"T{int(r):03d}", f"T{int(h):03d}")
        assert (data.road_ranks[i], data.home_ranks[i]) == (r, h)
        assert (data.road_scores[i], data.home_scores[i]) == (road_score, home_score)
        assert data.movs[i] == road_score - home_score


def test_round_margins_gives_integers():
    data = generate_synthetic(200, seed=5, round_margins=True)
    assert np.array_equal(data.movs, np.round(data.movs))


def test_dates_advance():
    data = generate_synthetic(120, seed=6)
    dates = data.dates.tolist()
    assert dates[0] == datetime.date(2014, 11, 1)
    assert dates[49] == datetime.date(2014, 11, 1)
    assert dates[50] == datetime.date(2014, 11, 2)
    assert dates == sorted(dates)


def test_noise_scale():
    data = generate_synthetic(20000, seed=9, noise_sigma=11.5)
    r, h = data.road_ranks, data.home_ranks
    b0, br, bh, brr, bhh = DEFAULT_COEFFICIENTS
    truth = b0 + br * r + bh * h + brr * r * r + bhh * h * h
    noise = data.movs - truth
    assert abs(float(noise.mean())) < 0.25
    assert float(noise.std()) == pytest.approx(11.5, rel=0.05)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        generate_synthetic(0, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(10, rank_max=1, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(10, noise_sigma=-1.0, seed=0)
    for noise in (float("nan"), float("inf"), 1e300):
        with pytest.raises(ParameterError):
            generate_synthetic(10, noise_sigma=noise, seed=0)
    with pytest.raises(ParameterError):  # a score past 2**53
        generate_synthetic(10, coefficients=(2.0**53, 0, 0, 0, 0), noise_sigma=0.0, seed=0)
    with pytest.raises(ParameterError):
        generate_synthetic(10, coefficients=(1.0, 2.0), seed=0)


def test_rejects_negative_seed_huge_rank_max_and_non_finite_coefficients():
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        generate_synthetic(10, seed=-1)
    with pytest.raises(ParameterError, match="rank_max"):
        generate_synthetic(10, rank_max=2**53 + 1, seed=0)
    with pytest.raises(ParameterError, match="b2 = nan"):
        generate_synthetic(10, coefficients=(0, 0, float("nan"), 0, 0), seed=0)
    # the largest rank_max is fine: every rank is still an exact float
    data = generate_synthetic(5, rank_max=2**53, noise_sigma=0.0, coefficients=(0,) * 5)
    assert (data.road_ranks <= 2.0**53).all() and (data.movs == 0).all()
