"""Columnar game datasets, CSV ingestion, train/validation splits and folds, axis rotation.

The margin of victory (MOV) convention used everywhere in this package is

    mov = road_score - home_score

so a positive margin means the road team won. Rankings are 1 = best.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, ParameterError, RankRangeWarning, RowParseError

CSV_COLUMNS = (
    "date",
    "home_team",
    "road_team",
    "home_rank",
    "road_rank",
    "home_score",
    "road_score",
)

# Division I fielded 351 teams in the seasons this data model was built for;
# larger ranks are accepted but flagged.
CUSTOMARY_MAX_RANK = 351

_SIN45 = math.sin(math.pi / 4.0)
_COS45 = math.cos(math.pi / 4.0)


def rotate_arrays(road_ranks, home_ranks):
    """Rotate (road_rank, home_rank) pairs 45 degrees counter-clockwise;
    returns (x, y) numpy arrays.

    The rotated x axis runs along increasing rank sum (worse pairings), the
    rotated y axis along the rank difference. Rotation preserves Euclidean
    distances, so isotropic smoothing is unaffected; the point of the new
    frame is to let anisotropic smoothers stretch along x and y separately.
    """
    r = np.asarray(road_ranks, dtype=float)
    h = np.asarray(home_ranks, dtype=float)
    return r * _SIN45 + h * _COS45, r * _COS45 - h * _SIN45


def _is_rank(values: np.ndarray) -> np.ndarray:
    """Elementwise test of a float array: finite, integer and >= 1."""
    return np.isfinite(values) & (values >= 1) & (np.floor(values) == values)


def check_seed(seed: int) -> None:
    """Raise ParameterError unless `seed` is >= 0, as numpy's generators require."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def training_arrays(road_ranks, home_ranks, movs):
    """Validated float vectors (road, home, movs) for a smoother built from
    arrays: nonempty, of one length, finite, with integer ranks >= 1."""
    road, home, movs = (np.asarray(a, dtype=float) for a in (road_ranks, home_ranks, movs))
    if road.ndim != 1 or road.shape != home.shape or road.shape != movs.shape:
        raise DataError(
            f"road_ranks, home_ranks and movs must be lists of one length, got "
            f"{road.shape}, {home.shape} and {movs.shape}"
        )
    if len(movs) == 0:
        raise DataError("no training games")
    if not (np.isfinite(road).all() and np.isfinite(home).all() and np.isfinite(movs).all()):
        raise DataError("road_ranks, home_ranks and movs must be finite")
    if not (_is_rank(road).all() and _is_rank(home).all()):
        raise DataError("road_ranks and home_ranks must be integers >= 1")
    return road, home, movs


def distinct_pairs(road, home):
    """Group the equal (road, home) pairs of two equal-length vectors.

    Returns (first, inverse, counts): group g holds `counts[g]` pairs, the
    first of them at index `first[g]`, and pair i is in group `inverse[i]`.
    Groups are numbered by first occurrence, so `road[first], home[first]`
    lists the distinct pairs in input order. A stable lexsort compares the
    two columns directly; a combined integer key could overflow.
    """
    road, home = np.asarray(road), np.asarray(home)
    order = np.lexsort((home, road))
    r, h = road[order], home[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (r[1:] != r[:-1]) | (h[1:] != h[:-1])
    heads = order[starts]  # the stable sort puts each group's first index first
    by_first = np.argsort(heads)
    label = np.empty(len(heads), dtype=np.intp)
    label[by_first] = np.arange(len(heads))
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = label[np.cumsum(starts) - 1]
    return heads[by_first], inverse, np.bincount(inverse, minlength=len(heads))


def _invalid_game(columns):
    """(index, message) of the first game whose ranks are not integers >= 1
    or whose scores are not finite and >= 0, or None; `columns` maps the
    Dataset's rank and score field names to float arrays."""
    ranks = np.stack([columns["home_ranks"], columns["road_ranks"]])
    scores = np.stack([columns["home_scores"], columns["road_scores"]])
    bad_ranks = ~_is_rank(ranks).all(axis=0)
    bad = bad_ranks | ~(np.isfinite(scores) & (scores >= 0)).all(axis=0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    if bad_ranks[i]:
        return i, f"ranks must be integers >= 1, got {ranks[0, i]:g}, {ranks[1, i]:g}"
    return i, f"scores must be finite and >= 0, got {scores[0, i]:g}, {scores[1, i]:g}"


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of games, stored as one read-only array per column.

    Dates are `datetime64[D]`, team names Python strings, ranks and scores floats,
    and `movs = road_scores - home_scores`. Ranks must be integers >= 1 and
    scores finite and >= 0. `distinct_pairs` groups the games that share a
    (road_rank, home_rank) pair; pure-error estimation and lack-of-fit
    testing operate on those groups.
    """

    dates: np.ndarray
    home_teams: np.ndarray
    road_teams: np.ndarray
    home_ranks: np.ndarray
    road_ranks: np.ndarray
    home_scores: np.ndarray
    road_scores: np.ndarray
    movs: np.ndarray = field(init=False)

    def __post_init__(self):
        # object, not a fixed-width string dtype: one long name would pad every entry
        dtypes = {"dates": "datetime64[D]", "home_teams": object, "road_teams": object}
        columns = {
            f.name: np.array(getattr(self, f.name), dtype=dtypes.get(f.name, float))
            for f in fields(self) if f.init
        }
        if any(c.ndim != 1 or len(c) != len(columns["dates"]) for c in columns.values()):
            raise DataError("the columns of a Dataset must be lists of one length")
        bad = _invalid_game(columns)
        if bad is not None:
            raise ParameterError(bad[1])
        columns["movs"] = columns["road_scores"] - columns["home_scores"]
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.movs)

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the games at `indices`, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(**{f.name: getattr(self, f.name)[idx] for f in fields(self) if f.init})


@dataclass(frozen=True)
class SplitSpec:
    """How to carve one dataset into train and validation parts.

    mode "chronological" takes the earliest `train_count` games (ties broken
    by input order). mode "random" shuffles positions with a generator seeded
    by `seed` and takes the first `train_count`. Any seed given must be >= 0.
    """

    train_count: int
    mode: str = "chronological"
    seed: int | None = None


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split `dataset` into (train, validation) per `spec`.

    Deterministic: the chronological mode depends only on dates and input
    order, the random mode only on (size, seed).
    """
    n = len(dataset)
    if not 0 < spec.train_count < n:
        raise ParameterError(
            f"train_count must be in [1, {n - 1}] for a dataset of {n} games, "
            f"got {spec.train_count}"
        )
    if spec.seed is not None:
        check_seed(spec.seed)
    if spec.mode == "chronological":
        order = np.argsort(dataset.dates, kind="stable")
    elif spec.mode == "random":
        if spec.seed is None:
            raise ParameterError("random mode requires a seed")
        order = np.random.default_rng(spec.seed).permutation(n)
    else:
        raise ParameterError(f"unknown split mode {spec.mode!r}")
    return dataset.subset(order[: spec.train_count]), dataset.subset(order[spec.train_count :])


def fold_assignments(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic k-fold partition of range(n); sizes differ by at most 1.

    A pure function of (n, k, seed): the positions are shuffled by a seeded
    PCG64 generator and split into k consecutive chunks. Mark values never
    enter the assignment.
    """
    if not 2 <= k <= n:
        raise ParameterError(f"folds must satisfy 2 <= k <= n, got k={k}, n={n}")
    check_seed(seed)
    perm = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def fold_splits(n: int, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train_idx, held_out) for each fold of `fold_assignments(n, k, seed)`;
    train_idx is sorted."""
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, held), held) for held in fold_assignments(n, k, seed)]


def _parse_int(raw: str, column: str, row: int) -> int:
    text = raw.strip()
    try:
        value = int(text)
    except ValueError:
        raise RowParseError(row, f"column {column!r} is not an integer: {raw!r}") from None
    # a float column holds integers exactly only up to 2**53
    if abs(value) > 2**53:
        raise RowParseError(row, f"column {column!r} is beyond 2**53: {raw!r}")
    return value


def parse_games(text: str) -> Dataset:
    """Parse CSV game data into a Dataset.

    Expects a header with the columns in CSV_COLUMNS (extra columns are
    ignored). Dates must be ISO (YYYY-MM-DD); ranks and scores must be
    integers of magnitude at most 2**53, ranks >= 1 and scores >= 0. Ranks
    above 351 are accepted with a RankRangeWarning. Row order is preserved.
    One leading UTF-8 byte order mark, as spreadsheet exports write, is dropped.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("input is empty") from None
    header = [c.strip() for c in header]
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise DataError(f"missing required column(s): {', '.join(missing)}")
    col = {name: header.index(name) for name in CSV_COLUMNS}

    columns: dict[str, list] = {name: [] for name in CSV_COLUMNS}
    row_nums = []
    for row_num, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise RowParseError(row_num, f"expected {len(header)} cells, got {len(row)}")
        try:
            columns["date"].append(dt.date.fromisoformat(row[col["date"]].strip()))
        except ValueError:
            raise RowParseError(
                row_num, f"column 'date' is not an ISO date: {row[col['date']]!r}"
            ) from None
        for name in ("home_team", "road_team"):
            columns[name].append(row[col[name]].strip())
        for name in CSV_COLUMNS[3:]:  # the ranks and scores
            columns[name].append(_parse_int(row[col[name]], name, row_num))
        row_nums.append(row_num)
    if not row_nums:
        raise DataError("no game rows found")
    numbers = {name + "s": np.array(columns[name], dtype=float) for name in CSV_COLUMNS[3:]}
    bad = _invalid_game(numbers)
    if bad is not None:
        raise RowParseError(row_nums[bad[0]], bad[1])
    highest = np.maximum(numbers["home_ranks"], numbers["road_ranks"])
    oversized = int((highest > CUSTOMARY_MAX_RANK).sum())
    if oversized:
        warnings.warn(
            f"{oversized} game(s) have ranks above {CUSTOMARY_MAX_RANK}",
            RankRangeWarning,
            stacklevel=2,
        )
    return Dataset(dates=columns["date"], home_teams=columns["home_team"],
                   road_teams=columns["road_team"], **numbers)


def _format_score(value: float) -> str:
    # Integer scores round-trip exactly; synthetic real-valued scores keep
    # full precision via repr.
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def write_games(dataset: Dataset) -> str:
    """Serialize a Dataset back to CSV text (inverse of parse_games)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    columns = zip(dataset.dates.astype(str), dataset.home_teams, dataset.road_teams,
                  dataset.home_ranks, dataset.road_ranks, dataset.home_scores, dataset.road_scores)
    for date, home, road, home_rank, road_rank, home_score, road_score in columns:
        writer.writerow([date, home, road, str(int(home_rank)), str(int(road_rank)),
                         _format_score(home_score), _format_score(road_score)])
    return out.getvalue()
