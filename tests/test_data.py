"""CSV ingestion, the columnar Dataset, coordinate rotation, and splitting."""

import dataclasses
import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmargin.data import (
    CUSTOMARY_MAX_RANK,
    Dataset,
    SplitSpec,
    distinct_pairs,
    fold_assignments,
    fold_splits,
    parse_games,
    rotate_arrays,
    split,
    write_games,
)
from rankmargin.errors import DataError, ParameterError, RankRangeWarning, RowParseError
from rankmargin.synth import generate_synthetic

import oracles

HEADER = "date,home_team,road_team,home_rank,road_rank,home_score,road_score\n"


def _one_game(home_rank=100, road_rank=50, home_score=70, road_score=65):
    return Dataset(["2015-01-10"], ["A"], ["B"], [home_rank], [road_rank], [home_score], [road_score])


def test_dataset_mov():
    data = _one_game()
    assert data.dates[0] == np.datetime64("2015-01-10")
    assert data.movs.tolist() == [-5.0]


def test_dataset_validation():
    for rank in (0, -3, 2.5, math.inf, math.nan):
        for game in (dict(home_rank=rank), dict(road_rank=rank)):
            with pytest.raises(ParameterError, match="ranks must be integers >= 1"):
                _one_game(**game)
    for score in (-1, -0.5, math.inf, math.nan):
        for game in (dict(home_score=score), dict(road_score=score)):
            with pytest.raises(ParameterError, match="scores must be finite and >= 0"):
                _one_game(**game)


def test_dataset_columns_are_one_length_read_only_copies():
    with pytest.raises(DataError):
        Dataset(["2015-01-10"], ["A", "C"], ["B"], [1], [2], [3], [4])
    names = ["A\x00", "x" * 10_000]  # kept as given, without padding the short one
    data = Dataset(["2015-01-10"] * 2, names, names, [1, 2], [2, 1], [3, 3], [4, 4])
    assert data.home_teams.tolist() == names and data.home_teams.dtype == object
    ranks = np.array([4.0])
    data = Dataset(["2015-01-10"], ["A"], ["B"], ranks, [2], [3], [4])
    ranks[0] = 0.0  # the Dataset holds a copy
    assert data.home_ranks[0] == 4.0
    with pytest.raises(ValueError):
        data.movs[0] = 1.0


def test_parse_single_row():
    data = parse_games(HEADER + "2015-01-10,A,B,100,50,70,65\n")
    assert len(data) == 1
    assert data.home_ranks[0] == 100 and data.road_ranks[0] == 50
    assert data.movs[0] == -5


def test_parse_replicate_grouping():
    text = HEADER + (
        "2015-01-10,A,B,100,50,70,65\n"
        "2015-01-11,C,D,100,50,80,77\n"
        "2015-01-12,E,F,30,40,60,72\n"
    )
    data = parse_games(text)
    first, inverse, _ = distinct_pairs(data.road_ranks, data.home_ranks)
    idx = {
        (data.road_ranks[f], data.home_ranks[f]): tuple(np.flatnonzero(inverse == g))
        for g, f in enumerate(first)
    }
    assert len(idx) == 2
    assert idx[(50, 100)] == (0, 1)
    assert idx[(40, 30)] == (2,)


def test_parse_bad_rank_names_row():
    text = HEADER + "2015-01-10,A,B,abc,50,70,65\n"
    with pytest.raises(RowParseError) as err:
        parse_games(text)
    assert "row 1" in str(err.value)


@pytest.mark.parametrize(
    "row,message",
    [
        ("2015-01-11,A,B,0,50,70,65", "ranks must be integers >= 1, got 0, 50"),
        ("2015-01-11,A,B,10,50,70,-2", "scores must be finite and >= 0, got 70, -2"),
        ("2015-01-11,A,B,10,50,9007199254740993,65", "'home_score' is beyond 2**53"),
        ("2015-01-11,A,B,10,9007199254740993,70,65", "'road_rank' is beyond 2**53"),
    ],
)
def test_parse_rule_errors_name_row(row, message):
    text = HEADER + "2015-01-10,A,B,10,50,70,65\n\n" + row + "\n"
    with pytest.raises(RowParseError) as err:
        parse_games(text)
    assert err.value.row == 3 and message in str(err.value)


def test_parse_accepts_scores_up_to_2_to_the_53():
    data = parse_games(HEADER + "2015-01-10,A,B,10,50,9007199254740992,0\n")
    assert data.movs[0] == -(2.0**53)


def test_parse_bad_date_names_row():
    text = HEADER + "2015-01-10,A,B,10,50,70,65\nnot-a-date,A,B,10,50,70,65\n"
    with pytest.raises(RowParseError) as err:
        parse_games(text)
    assert "row 2" in str(err.value)


def test_parse_missing_columns():
    with pytest.raises(DataError, match="missing required column") as err:
        parse_games("date,home_team,road_team\n2015-01-10,A,B\n")
    msg = str(err.value)
    assert "home_rank" in msg and "road_score" in msg


def test_parse_empty_input():
    with pytest.raises(DataError, match="^input is empty$"):
        parse_games("")
    with pytest.raises(DataError, match="^no game rows found$"):
        parse_games(HEADER)


def test_parse_skips_blank_lines():
    text = HEADER + "\n2015-01-10,A,B,100,50,70,65\n\n"
    assert len(parse_games(text)) == 1


def test_parse_drops_one_leading_byte_order_mark():
    text = HEADER + "2015-01-10,A,B,100,50,70,65\n2015-01-11,C,D,3,7,60,61\n"
    plain, marked = parse_games(text), parse_games("\ufeff" + text)
    for f in dataclasses.fields(Dataset):
        np.testing.assert_array_equal(getattr(marked, f.name), getattr(plain, f.name))
    with pytest.raises(DataError, match="missing required column"):
        parse_games("\ufeff\ufeff" + text)


def test_parse_oversized_rank_warns_once():
    rows = "".join(
        f"2015-01-10,A,B,{CUSTOMARY_MAX_RANK + k},50,70,65\n" for k in (1, 2)
    )
    with pytest.warns(RankRangeWarning) as rec:
        data = parse_games(HEADER + rows)
    assert len(rec) == 1
    assert len(data) == 2


def test_roundtrip_write_parse():
    # CSV scores are integers, so only rounded margins survive a round trip
    data = generate_synthetic(120, seed=3, rank_max=25, round_margins=True)
    again = parse_games(write_games(data))
    assert len(again) == len(data)
    np.testing.assert_array_equal(again.road_ranks, data.road_ranks)
    np.testing.assert_array_equal(again.home_ranks, data.home_ranks)
    np.testing.assert_allclose(again.movs, data.movs, rtol=0, atol=0)
    np.testing.assert_array_equal(again.dates, data.dates)


_TEAM = st.text(alphabet="ABCxyz09 ,.'\"&-", max_size=12).map(str.strip)


_COLUMNS = ("dates", "home_teams", "road_teams", "home_ranks", "road_ranks",
            "home_scores", "road_scores", "movs")


@st.composite
def _games(draw):
    n = draw(st.integers(1, 20))
    column = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))
    return Dataset(
        dates=column(st.dates(datetime.date(1990, 1, 1), datetime.date(2040, 12, 31))),
        home_teams=column(_TEAM),
        road_teams=column(_TEAM),
        home_ranks=column(st.integers(1, CUSTOMARY_MAX_RANK)),
        road_ranks=column(st.integers(1, CUSTOMARY_MAX_RANK)),
        home_scores=column(st.integers(0, 200)),
        road_scores=column(st.integers(0, 200)),
    )


def _assert_same_games(a, b):
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@settings(max_examples=80, deadline=None)
@given(_games())
def test_write_then_parse_is_a_round_trip(data):
    _assert_same_games(parse_games(write_games(data)), data)


_N_AND_K = st.integers(2, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n)))


@settings(max_examples=80, deadline=None)
@given(_N_AND_K, st.integers(0, 2**32))
def test_fold_sizes_differ_by_at_most_one(n_and_k, seed):
    n, k = n_and_k
    folds = fold_assignments(n, k, seed)
    sizes = [len(f) for f in folds]
    assert len(folds) == k and max(sizes) - min(sizes) <= 1
    assert sorted(np.concatenate(folds)) == list(range(n))


def test_fold_splits_pair_each_fold_with_the_rest():
    for (train_idx, held), want in zip(fold_splits(23, 4, 9), fold_assignments(23, 4, 9)):
        np.testing.assert_array_equal(held, want)
        np.testing.assert_array_equal(train_idx, np.setdiff1d(np.arange(23), want))
    with pytest.raises(ParameterError):
        fold_splits(5, 6, 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=40))
def test_distinct_pairs_match_unique(pairs):
    road, home = np.array(pairs).T
    first, inverse, counts = distinct_pairs(road, home)
    uniq, index, uinv, ucounts = np.unique(
        np.array(pairs), axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    by_first = np.argsort(index)  # groups numbered by first occurrence
    label = np.empty_like(by_first)
    label[by_first] = np.arange(len(by_first))
    np.testing.assert_array_equal(first, index[by_first])
    np.testing.assert_array_equal(inverse, label[uinv.ravel()])
    np.testing.assert_array_equal(counts, ucounts[by_first])


def test_distinct_pairs_of_huge_ranks():
    # road * base + home would overflow int64 here
    big = 2**62
    road = np.array([big, 1, big, big - 1, 1], dtype=np.int64)
    home = np.array([3, big, 3, 3, big], dtype=np.int64)
    first, inverse, counts = distinct_pairs(road, home)
    np.testing.assert_array_equal(first, [0, 1, 3])
    np.testing.assert_array_equal(inverse, [0, 1, 0, 2, 1])
    np.testing.assert_array_equal(counts, [2, 2, 1])
    empty = distinct_pairs(np.array([]), np.array([]))
    assert all(len(a) == 0 for a in empty)


def test_rotate_known_points():
    x, y = rotate_arrays([1, 351, 0], [1, 1, 0])
    assert abs(x[0] - math.sqrt(2.0)) < 1e-12
    assert abs(y[0]) < 1e-12
    assert abs(x[1] - 248.90158697766603) < 1e-9
    assert abs(y[1] - 247.48737341529164) < 1e-9
    assert (x[2], y[2]) == (0.0, 0.0)


def test_rotate_matches_reference_and_preserves_norm():
    rng = np.random.default_rng(7)
    r, h = rng.uniform(0, 400, (2, 50))
    x, y = rotate_arrays(r, h)
    rx, ry = np.array([oracles.rotate_reference(a, b) for a, b in zip(r, h)]).T
    np.testing.assert_allclose(x, rx, rtol=0, atol=1e-9)
    np.testing.assert_allclose(y, ry, rtol=0, atol=1e-9)
    np.testing.assert_allclose(x * x + y * y, r * r + h * h, rtol=0, atol=1e-6)


def test_chronological_split_sizes():
    data = generate_synthetic(6024, seed=0)
    train, valid = split(data, SplitSpec(train_count=4518))
    assert len(train) == 4518
    assert len(valid) == 1506
    assert train.dates.max() <= valid.dates.min()


def test_chronological_split_is_stable_for_ties():
    # many games share a date; order within a date must follow input order
    data = generate_synthetic(200, seed=1)
    train, valid = split(data, SplitSpec(train_count=130))
    rebuilt = [
        (str(d), r, h, m)
        for part in (train, valid)
        for d, r, h, m in zip(part.dates, part.road_ranks, part.home_ranks, part.movs)
    ]
    original = list(zip(data.dates.astype(str), data.road_ranks, data.home_ranks, data.movs))
    assert sorted(original, key=lambda g: g[0]) == rebuilt


def test_chronological_split_breaks_date_ties_by_input_order():
    dates = ["2015-01-03", "2015-01-01", "2015-01-03", "2015-01-02", "2015-01-01"]
    data = Dataset(dates, ["A"] * 5, ["B"] * 5, [1, 2, 3, 4, 5], [1] * 5, [0] * 5, [0] * 5)
    train, valid = split(data, SplitSpec(train_count=3))
    assert train.home_ranks.tolist() == [2, 5, 4]
    assert valid.home_ranks.tolist() == [1, 3]


def test_fold_assignments_reject_negative_seed():
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        fold_assignments(10, 2, -1)


def test_random_split_deterministic():
    data = generate_synthetic(300, seed=2)
    spec = SplitSpec(train_count=200, mode="random", seed=11)
    t1, v1 = split(data, spec)
    t2, v2 = split(data, spec)
    np.testing.assert_array_equal(t1.movs, t2.movs)
    np.testing.assert_array_equal(v1.movs, v2.movs)
    t3, _ = split(data, SplitSpec(train_count=200, mode="random", seed=12))
    assert not np.array_equal(t1.movs, t3.movs)


def test_split_preserves_games():
    data = generate_synthetic(150, seed=4)
    train, valid = split(data, SplitSpec(train_count=90, mode="random", seed=0))
    assert len(train) + len(valid) == len(data)
    games = lambda part: list(zip(part.dates.astype(str), part.road_ranks, part.home_ranks, part.movs))
    assert sorted(games(train) + games(valid)) == sorted(games(data))


def test_split_errors():
    data = generate_synthetic(10, seed=5)
    with pytest.raises(ParameterError, match=r"train_count must be in \[1, 9\].*got 10$"):
        split(data, SplitSpec(train_count=10))
    with pytest.raises(ParameterError, match=r"train_count must be in \[1, 9\].*got 0$"):
        split(data, SplitSpec(train_count=0))
    with pytest.raises(ParameterError, match="unknown split mode 'alphabetical'"):
        split(data, SplitSpec(train_count=5, mode="alphabetical"))
    with pytest.raises(ParameterError, match="random mode requires a seed"):
        split(data, SplitSpec(train_count=5, mode="random"))  # no seed


def test_dataset_arrays_and_subset():
    data = generate_synthetic(50, seed=6, rank_max=20)
    assert data.road_ranks.dtype == float
    np.testing.assert_array_equal(data.movs, data.road_scores - data.home_scores)
    sub = data.subset([0, 3, 7])
    assert len(sub) == 3
    for name in _COLUMNS:
        np.testing.assert_array_equal(getattr(sub, name), getattr(data, name)[[0, 3, 7]])
    assert len(data.subset([])) == 0
