"""Model evaluation: RMSE, pure error, lack of fit, cross-validation, benchmark.

Conventions used throughout (and stated in the report header):

  * model RMSE uses divisor n, for training and validation sets alike;
  * pure-error RMSE uses its own degrees of freedom, n minus the number of
    distinct rank pairs;
  * cross-validation pools squared errors over folds, then takes one square
    root (not a mean of per-fold RMSEs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, distinct_pairs, fold_splits
from .errors import (
    DataError,
    InconsistencyError,
    NoReplicationError,
    ParameterError,
    RankMarginError,
)
from .numerics import f_cdf


def rmse(predicted, actual) -> float:
    """Root mean squared error with divisor n."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or len(p) == 0:
        raise ParameterError(f"need equal-length nonempty vectors, got {p.shape} and {a.shape}")
    d = p - a
    return float(np.sqrt(d @ d / len(d)))


@dataclass(frozen=True)
class PureErrorSummary:
    """Within-group variation among games that share a rank pair."""

    ss_pe: float
    df_pe: int
    rmse_pe: float
    n_groups: int


def pure_error(data: Dataset) -> PureErrorSummary:
    """Pure-error decomposition over replicate rank pairs.

    Raises NoReplicationError when every rank pair is unique (df would be 0).
    """
    n = len(data)
    _, group, counts = distinct_pairs(data.road_ranks, data.home_ranks)
    m = len(counts)
    df_pe = n - m
    if df_pe < 1:
        raise NoReplicationError("no rank pair occurs more than once")
    movs = data.movs
    dev = movs - (np.bincount(group, movs, m) / counts)[group]  # 0 for a lone game
    # one group after another, in first-occurrence order: the lack-of-fit
    # p-value amplifies the rounding of another order about 30-fold
    ss_pe = float(np.cumsum(np.bincount(group, dev * dev, m))[-1])
    return PureErrorSummary(
        ss_pe=ss_pe, df_pe=df_pe, rmse_pe=math.sqrt(ss_pe / df_pe), n_groups=m
    )


@dataclass(frozen=True)
class LackOfFitResult:
    f_stat: float
    df_lof: int
    df_pe: int
    p_value: float
    ss_lof: float
    ss_pe: float


def lack_of_fit(fit_sse: float, n_params: int, data: Dataset) -> LackOfFitResult:
    """F test splitting a model's training SSE into lack of fit and pure error.

    `fit_sse` is the model's training residual sum of squares and `n_params`
    its parameter count. A fit_sse below the pure-error SS (beyond floating
    point slack) is impossible for any function of the rank pair and raises
    InconsistencyError, since it means the SSE came from somewhere else.
    """
    pure = pure_error(data)
    m = pure.n_groups
    df_lof = m - n_params
    if df_lof < 1:
        raise DataError(
            f"lack of fit needs more distinct rank pairs ({m}) than parameters ({n_params})"
        )
    tol = 1e-8 * max(1.0, pure.ss_pe)
    if fit_sse < pure.ss_pe - tol:
        raise InconsistencyError(
            f"fit SSE {fit_sse} is below pure-error SS {pure.ss_pe}; "
            "the SSE cannot belong to this data"
        )
    ss_lof = max(fit_sse - pure.ss_pe, 0.0)
    mse_pe = pure.ss_pe / pure.df_pe
    if mse_pe == 0.0:
        f_stat = 0.0 if ss_lof <= tol else math.inf
    else:
        f_stat = (ss_lof / df_lof) / mse_pe
    p_value = 1.0 - f_cdf(f_stat, df_lof, pure.df_pe)
    return LackOfFitResult(
        f_stat=f_stat,
        df_lof=df_lof,
        df_pe=pure.df_pe,
        p_value=p_value,
        ss_lof=ss_lof,
        ss_pe=pure.ss_pe,
    )


def kfold_cv(data: Dataset, k: int, seed: int, kind, params) -> float:
    """Pooled k-fold cross-validated RMSE on `data` of the `models.Kind` row
    `kind`, fitted with the smoothing parameters `params`."""
    n = len(data)
    total_sq = 0.0
    for j, (tr_idx, held_out) in enumerate(fold_splits(n, k, seed), start=1):
        try:
            fitted = kind.fit(data.subset(tr_idx), params)
        except Exception as exc:
            raise RankMarginError(
                f"model {kind.column!r} failed to fit in fold {j} of {k}: {exc}"
            ) from exc
        preds = kind.predict(fitted, data.road_ranks[held_out], data.home_ranks[held_out])
        err = np.asarray(preds, dtype=float) - data.movs[held_out]
        total_sq += float(err @ err)
    return math.sqrt(total_sq / n)


@dataclass(frozen=True)
class ReportRow:
    label: str
    values: tuple  # one float-or-None per column


@dataclass(frozen=True)
class BenchmarkReport:
    """RMSE table: one row per dataset, pure error plus one column per model."""

    columns: tuple
    training_rows: tuple
    validation_rows: tuple
    training_mean: ReportRow
    validation_mean: ReportRow

    def to_dict(self) -> dict:
        def row(r: ReportRow) -> dict:
            return {"label": r.label, "values": list(r.values)}

        return {
            "columns": list(self.columns),
            "training_rows": [row(r) for r in self.training_rows],
            "validation_rows": [row(r) for r in self.validation_rows],
            "training_mean": row(self.training_mean),
            "validation_mean": row(self.validation_mean),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkReport":
        def row(rd: dict) -> ReportRow:
            return ReportRow(label=rd["label"], values=tuple(rd["values"]))

        return cls(
            columns=tuple(d["columns"]),
            training_rows=tuple(row(r) for r in d["training_rows"]),
            validation_rows=tuple(row(r) for r in d["validation_rows"]),
            training_mean=row(d["training_mean"]),
            validation_mean=row(d["validation_mean"]),
        )

    def to_text(self) -> str:
        header_notes = [
            "# RMSE of predicted margin of victory (road score - home score).",
            "# Model columns use divisor n; the pure-error column uses",
            "# n - (number of distinct rank pairs). '--' marks a dataset",
            "# with no replicated rank pairs.",
        ]
        label_width = max(
            len("Dataset"),
            *(
                len(r.label)
                for r in (*self.training_rows, self.training_mean, *self.validation_rows, self.validation_mean)
            ),
        )
        widths = [max(len(c), 8) for c in self.columns]

        def fmt_row(label: str, values) -> str:
            cells = [label.ljust(label_width)]
            for v, w in zip(values, widths):
                cells.append(("--" if v is None else f"{v:.2f}").rjust(w))
            return "  ".join(cells)

        lines = list(header_notes)
        lines.append(
            "  ".join(
                ["Dataset".ljust(label_width)] + [c.rjust(w) for c, w in zip(self.columns, widths)]
            )
        )
        for r in self.training_rows:
            lines.append(fmt_row(r.label, r.values))
        lines.append(fmt_row(self.training_mean.label, self.training_mean.values))
        for r in self.validation_rows:
            lines.append(fmt_row(r.label, r.values))
        lines.append(fmt_row(self.validation_mean.label, self.validation_mean.values))
        return "\n".join(lines) + "\n"


PURE_ERROR_COLUMN = "Pure error"


def _column_mean(rows, col_idx: int):
    vals = [r.values[col_idx] for r in rows if r.values[col_idx] is not None]
    if not vals:
        return None
    return float(sum(vals) / len(vals))


def benchmark(pairs, kinds, params) -> tuple[BenchmarkReport, list[dict]]:
    """Fit every model kind on every training set and tabulate RMSEs.

    `pairs` is a sequence of (train, validation) Dataset pairs, `kinds` a
    sequence of `models.Kind` rows, and `params` maps each smoothing
    parameter a row `needs` to its value. Each kind is fit once per pair and
    scored on both halves, which it predicts in one call. Pure error is
    computed per dataset from its own replicate groups (None when a dataset
    has no replicates).

    Returns the table and the fits: `fits[i]` maps each kind's name to the
    model fitted on the training set of `pairs[i]`.
    """
    pairs = list(pairs)
    kinds = list(kinds)
    if not pairs or not kinds:
        raise ParameterError("benchmark needs at least one dataset pair and one model")
    columns = (PURE_ERROR_COLUMN,) + tuple(kind.column for kind in kinds)
    training_rows = []
    validation_rows = []
    fits = []
    for i, (train, valid) in enumerate(pairs, start=1):
        def pure_or_none(ds):
            try:
                return pure_error(ds).rmse_pe
            except NoReplicationError:
                return None

        train_vals = [pure_or_none(train)]
        valid_vals = [pure_or_none(valid)]
        fits.append({})
        for kind in kinds:
            try:
                fitted = kind.fit(train, params)
            except Exception as exc:
                raise RankMarginError(
                    f"model {kind.column!r} failed on training {i}: {exc}"
                ) from exc
            fits[-1][kind.name] = fitted
            # one call for both halves: predictions do not depend on their batch
            preds = kind.predict(
                fitted,
                np.concatenate([train.road_ranks, valid.road_ranks]),
                np.concatenate([train.home_ranks, valid.home_ranks]),
            )
            train_vals.append(rmse(preds[: len(train)], train.movs))
            valid_vals.append(rmse(preds[len(train):], valid.movs))
        training_rows.append(ReportRow(label=f"Training {i}", values=tuple(train_vals)))
        validation_rows.append(ReportRow(label=f"Validation {i}", values=tuple(valid_vals)))
    training_mean = ReportRow(
        label="Mean, training",
        values=tuple(_column_mean(training_rows, c) for c in range(len(columns))),
    )
    validation_mean = ReportRow(
        label="Mean, validation",
        values=tuple(_column_mean(validation_rows, c) for c in range(len(columns))),
    )
    report = BenchmarkReport(
        columns=columns,
        training_rows=tuple(training_rows),
        validation_rows=tuple(validation_rows),
        training_mean=training_mean,
        validation_mean=validation_mean,
    )
    return report, fits
