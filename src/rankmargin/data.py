"""Game records, CSV ingestion, train/validation splits and folds, axis rotation.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CsvFormatError,
    DataError,
    EmptyInputError,
    InvalidSplitError,
    ParameterError,
    RankRangeWarning,
    RowParseError,
)

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


@dataclass(frozen=True)
class GameRecord:
    """One game: date, team names, entering ranks, final score."""

    date: dt.date
    home_team: str
    road_team: str
    home_rank: int
    road_rank: int
    home_score: int
    road_score: int
    mov: int = field(init=False)

    def __post_init__(self):
        if self.home_rank < 1 or self.road_rank < 1:
            raise ParameterError(
                f"ranks must be >= 1, got home={self.home_rank} road={self.road_rank}"
            )
        if self.home_score < 0 or self.road_score < 0:
            raise ParameterError(
                f"scores must be >= 0, got home={self.home_score} road={self.road_score}"
            )
        object.__setattr__(self, "mov", self.road_score - self.home_score)


class RotatedPoint(NamedTuple):
    """Coordinates of a rank pair after the 45 degree axis rotation."""

    x: float
    y: float


def rotate(road_rank: float, home_rank: float) -> RotatedPoint:
    """Rotate a (road_rank, home_rank) pair 45 degrees counter-clockwise.

    The rotated x axis runs along increasing rank sum (worse pairings), the
    rotated y axis along the rank difference. Rotation preserves Euclidean
    distances, so isotropic smoothing is unaffected; the point of the new
    frame is to let anisotropic smoothers stretch along x and y separately.
    """
    x = road_rank * _SIN45 + home_rank * _COS45
    y = road_rank * _COS45 - home_rank * _SIN45
    return RotatedPoint(x, y)


def rotate_arrays(road_ranks, home_ranks):
    """Vector form of :func:`rotate`; returns (x, y) numpy arrays."""
    r = np.asarray(road_ranks, dtype=float)
    h = np.asarray(home_ranks, dtype=float)
    return r * _SIN45 + h * _COS45, r * _COS45 - h * _SIN45


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
    if not all((r >= 1).all() and (r % 1 == 0).all() for r in (road, home)):
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


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of games, with their ranks and margins as
    float vectors. `distinct_pairs` groups the games that share a
    (road_rank, home_rank) pair; pure-error estimation and lack-of-fit
    testing operate on those groups.
    """

    games: tuple[GameRecord, ...]

    @classmethod
    def from_games(cls, games) -> "Dataset":
        return cls(games=tuple(games))

    def __len__(self) -> int:
        return len(self.games)

    @cached_property
    def road_ranks(self) -> np.ndarray:
        return np.array([g.road_rank for g in self.games], dtype=float)

    @cached_property
    def home_ranks(self) -> np.ndarray:
        return np.array([g.home_rank for g in self.games], dtype=float)

    @cached_property
    def movs(self) -> np.ndarray:
        return np.array([g.mov for g in self.games], dtype=float)

    def subset(self, indices) -> "Dataset":
        """New Dataset holding the games at `indices`, in the given order."""
        return Dataset.from_games(self.games[int(i)] for i in indices)


@dataclass(frozen=True)
class SplitSpec:
    """How to carve one dataset into train and validation parts.

    mode "chronological" takes the earliest `train_count` games (ties broken
    by input order; seed ignored). mode "random" shuffles positions with a
    seeded generator and takes the first `train_count`.
    """

    train_count: int
    mode: str = "chronological"
    seed: int | None = None


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split `dataset` into (train, validation) per `spec`.

    Both parts rebuild their own replicate indexes. Deterministic: the
    chronological mode depends only on dates and input order, the random
    mode only on (size, seed).
    """
    n = len(dataset)
    if not 0 < spec.train_count < n:
        raise InvalidSplitError(
            f"train_count must be in [1, {n - 1}] for a dataset of {n} games, "
            f"got {spec.train_count}"
        )
    if spec.mode == "chronological":
        order = sorted(range(n), key=lambda i: (dataset.games[i].date, i))
    elif spec.mode == "random":
        if spec.seed is None:
            raise InvalidSplitError("random mode requires a seed")
        if spec.seed < 0:
            raise InvalidSplitError(f"seed must be nonnegative, got {spec.seed}")
        order = list(np.random.default_rng(spec.seed).permutation(n))
    else:
        raise InvalidSplitError(f"unknown split mode {spec.mode!r}")
    train_idx = order[: spec.train_count]
    valid_idx = order[spec.train_count :]
    return dataset.subset(train_idx), dataset.subset(valid_idx)


def fold_assignments(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic k-fold partition of range(n); sizes differ by at most 1.

    A pure function of (n, k, seed): the positions are shuffled by a seeded
    PCG64 generator and split into k consecutive chunks. Mark values never
    enter the assignment.
    """
    if not 2 <= k <= n:
        raise ParameterError(f"folds must satisfy 2 <= k <= n, got k={k}, n={n}")
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
        return int(text)
    except ValueError:
        raise RowParseError(row, f"column {column!r} is not an integer: {raw!r}") from None


def parse_games(text: str) -> Dataset:
    """Parse CSV game data into a Dataset.

    Expects a header with the columns in CSV_COLUMNS (extra columns are
    ignored). Dates must be ISO (YYYY-MM-DD); ranks and scores must be
    integers, ranks >= 1 and scores >= 0. Ranks above 351 are accepted with
    a RankRangeWarning. Row order is preserved.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError("input is empty") from None
    header = [c.strip() for c in header]
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise CsvFormatError(f"missing required column(s): {', '.join(missing)}")
    col = {name: header.index(name) for name in CSV_COLUMNS}

    games: list[GameRecord] = []
    oversized = 0
    for row_num, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise RowParseError(row_num, f"expected {len(header)} cells, got {len(row)}")
        try:
            date = dt.date.fromisoformat(row[col["date"]].strip())
        except ValueError:
            raise RowParseError(
                row_num, f"column 'date' is not an ISO date: {row[col['date']]!r}"
            ) from None
        home_rank = _parse_int(row[col["home_rank"]], "home_rank", row_num)
        road_rank = _parse_int(row[col["road_rank"]], "road_rank", row_num)
        home_score = _parse_int(row[col["home_score"]], "home_score", row_num)
        road_score = _parse_int(row[col["road_score"]], "road_score", row_num)
        if home_rank < 1 or road_rank < 1:
            raise RowParseError(row_num, f"ranks must be >= 1, got {home_rank}, {road_rank}")
        if home_score < 0 or road_score < 0:
            raise RowParseError(
                row_num, f"scores must be >= 0, got {home_score}, {road_score}"
            )
        if home_rank > CUSTOMARY_MAX_RANK or road_rank > CUSTOMARY_MAX_RANK:
            oversized += 1
        games.append(
            GameRecord(
                date=date,
                home_team=row[col["home_team"]].strip(),
                road_team=row[col["road_team"]].strip(),
                home_rank=home_rank,
                road_rank=road_rank,
                home_score=home_score,
                road_score=road_score,
            )
        )
    if not games:
        raise EmptyInputError("no game rows found")
    if oversized:
        warnings.warn(
            f"{oversized} game(s) have ranks above {CUSTOMARY_MAX_RANK}",
            RankRangeWarning,
            stacklevel=2,
        )
    return Dataset.from_games(games)


def _format_score(value) -> str:
    # Integer scores round-trip exactly; synthetic real-valued scores keep
    # full precision via repr.
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def write_games(dataset: Dataset) -> str:
    """Serialize a Dataset back to CSV text (inverse of parse_games)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for g in dataset.games:
        writer.writerow(
            [
                g.date.isoformat(),
                g.home_team,
                g.road_team,
                str(int(g.home_rank)),
                str(int(g.road_rank)),
                _format_score(g.home_score),
                _format_score(g.road_score),
            ]
        )
    return out.getvalue()
