"""CSV ingestion, game records, coordinate rotation, and splitting."""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmargin.data import (
    CUSTOMARY_MAX_RANK,
    Dataset,
    GameRecord,
    SplitSpec,
    distinct_pairs,
    fold_assignments,
    fold_splits,
    parse_games,
    rotate,
    rotate_arrays,
    split,
    write_games,
)
from rankmargin.errors import (
    CsvFormatError,
    EmptyInputError,
    InvalidSplitError,
    ParameterError,
    RankRangeWarning,
    RowParseError,
)
from rankmargin.synth import generate_synthetic

import oracles

HEADER = "date,home_team,road_team,home_rank,road_rank,home_score,road_score\n"


def test_game_record_mov():
    g = GameRecord(
        date=datetime.date(2015, 1, 10),
        home_team="A",
        road_team="B",
        home_rank=100,
        road_rank=50,
        home_score=70,
        road_score=65,
    )
    assert g.mov == -5


def test_game_record_validation():
    with pytest.raises(ParameterError):
        GameRecord(datetime.date(2015, 1, 1), "A", "B", 0, 50, 70, 65)
    with pytest.raises(ParameterError):
        GameRecord(datetime.date(2015, 1, 1), "A", "B", 10, 50, -1, 65)


def test_parse_single_row():
    data = parse_games(HEADER + "2015-01-10,A,B,100,50,70,65\n")
    assert len(data) == 1
    g = data.games[0]
    assert g.home_rank == 100 and g.road_rank == 50
    assert g.mov == -5


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


def test_parse_bad_date_names_row():
    text = HEADER + "2015-01-10,A,B,10,50,70,65\nnot-a-date,A,B,10,50,70,65\n"
    with pytest.raises(RowParseError) as err:
        parse_games(text)
    assert "row 2" in str(err.value)


def test_parse_missing_columns():
    with pytest.raises(CsvFormatError) as err:
        parse_games("date,home_team,road_team\n2015-01-10,A,B\n")
    msg = str(err.value)
    assert "home_rank" in msg and "road_score" in msg


def test_parse_empty_input():
    with pytest.raises(EmptyInputError):
        parse_games("")
    with pytest.raises(EmptyInputError):
        parse_games(HEADER)


def test_parse_skips_blank_lines():
    text = HEADER + "\n2015-01-10,A,B,100,50,70,65\n\n"
    assert len(parse_games(text)) == 1


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
    assert [g.date for g in again.games] == [g.date for g in data.games]


_TEAM = st.text(alphabet="ABCxyz09 ,.'\"&-", max_size=12).map(str.strip)


@st.composite
def _games(draw):
    n = draw(st.integers(1, 20))
    return Dataset.from_games(
        GameRecord(
            date=draw(st.dates(datetime.date(1990, 1, 1), datetime.date(2040, 12, 31))),
            home_team=draw(_TEAM),
            road_team=draw(_TEAM),
            home_rank=draw(st.integers(1, CUSTOMARY_MAX_RANK)),
            road_rank=draw(st.integers(1, CUSTOMARY_MAX_RANK)),
            home_score=draw(st.integers(0, 200)),
            road_score=draw(st.integers(0, 200)),
        )
        for _ in range(n)
    )


@settings(max_examples=80, deadline=None)
@given(_games())
def test_write_then_parse_is_a_round_trip(data):
    assert parse_games(write_games(data)).games == data.games


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
    x, y = rotate(1, 1)
    assert abs(x - math.sqrt(2.0)) < 1e-12
    assert abs(y) < 1e-12
    x, y = rotate(351, 1)
    assert abs(x - 248.90158697766603) < 1e-9
    assert abs(y - 247.48737341529164) < 1e-9
    assert rotate(0, 0) == (0.0, 0.0)


def test_rotate_matches_reference_and_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r, h = rng.uniform(0, 400, 2)
        x, y = rotate(r, h)
        rx, ry = oracles.rotate_reference(r, h)
        assert abs(x - rx) < 1e-9 and abs(y - ry) < 1e-9
        assert abs((x * x + y * y) - (r * r + h * h)) < 1e-6


def test_rotate_arrays_matches_scalar():
    rng = np.random.default_rng(8)
    r = rng.uniform(1, 351, 30)
    h = rng.uniform(1, 351, 30)
    xs, ys = rotate_arrays(r, h)
    for i in range(len(r)):
        x, y = rotate(r[i], h[i])
        assert xs[i] == pytest.approx(x, abs=1e-12)
        assert ys[i] == pytest.approx(y, abs=1e-12)


def test_chronological_split_sizes():
    data = generate_synthetic(6024, seed=0)
    train, valid = split(data, SplitSpec(train_count=4518))
    assert len(train) == 4518
    assert len(valid) == 1506
    last_train = max(g.date for g in train.games)
    first_valid = min(g.date for g in valid.games)
    assert last_train <= first_valid


def test_chronological_split_is_stable_for_ties():
    # many games share a date; order within a date must follow input order
    data = generate_synthetic(200, seed=1)
    train, valid = split(data, SplitSpec(train_count=130))
    rebuilt = list(train.games) + list(valid.games)
    assert sorted(rebuilt, key=lambda g: g.date) == rebuilt


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
    combined = sorted(
        [(g.date, g.road_rank, g.home_rank, g.mov) for g in train.games]
        + [(g.date, g.road_rank, g.home_rank, g.mov) for g in valid.games]
    )
    original = sorted((g.date, g.road_rank, g.home_rank, g.mov) for g in data.games)
    assert combined == original


def test_split_errors():
    data = generate_synthetic(10, seed=5)
    with pytest.raises(InvalidSplitError):
        split(data, SplitSpec(train_count=10))
    with pytest.raises(InvalidSplitError):
        split(data, SplitSpec(train_count=0))
    with pytest.raises(InvalidSplitError):
        split(data, SplitSpec(train_count=5, mode="alphabetical"))
    with pytest.raises(InvalidSplitError):
        split(data, SplitSpec(train_count=5, mode="random"))  # no seed


def test_dataset_arrays_and_subset():
    data = generate_synthetic(50, seed=6, rank_max=20)
    assert data.road_ranks.dtype == float
    for i, g in enumerate(data.games):
        assert data.movs[i] == g.mov
    sub = data.subset([0, 3, 7])
    assert len(sub) == 3
    assert sub.games[1] is data.games[3]
