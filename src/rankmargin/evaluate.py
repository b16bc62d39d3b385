"""Model evaluation: RMSE, pure error, lack of fit, benchmark.

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

from .data import Dataset, distinct_pairs
from .errors import DataError, ParameterError, RankMarginError
from .numerics import f_sf


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

    Raises DataError when every rank pair is unique (df would be 0).
    """
    n = len(data)
    _, group, counts = distinct_pairs(data.road_ranks, data.home_ranks)
    m = len(counts)
    df_pe = n - m
    if df_pe < 1:
        raise DataError("no rank pair occurs more than once")
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
    DataError, since it means the SSE came from somewhere else.
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
        raise DataError(
            f"fit SSE {fit_sse} is below pure-error SS {pure.ss_pe}; "
            "the SSE cannot belong to this data"
        )
    ss_lof = max(fit_sse - pure.ss_pe, 0.0)
    mse_pe = pure.ss_pe / pure.df_pe
    if mse_pe == 0.0:
        f_stat = 0.0 if ss_lof <= tol else math.inf
    else:
        f_stat = (ss_lof / df_lof) / mse_pe
    p_value = f_sf(f_stat, df_lof, pure.df_pe)
    return LackOfFitResult(
        f_stat=f_stat,
        df_lof=df_lof,
        df_pe=pure.df_pe,
        p_value=p_value,
        ss_lof=ss_lof,
        ss_pe=pure.ss_pe,
    )


PURE_ERROR_COLUMN = "Pure error"


def table_text(table: dict) -> str:
    """The RMSE table that `benchmark` returns, as fixed-width text."""
    rows = [*table["training_rows"], table["training_mean"],
            *table["validation_rows"], table["validation_mean"]]
    label_width = max(len("Dataset"), *(len(r["label"]) for r in rows))
    widths = [max(len(c), 8) for c in table["columns"]]
    lines = [
        "# RMSE of predicted margin of victory (road score - home score).",
        "# Model columns use divisor n; the pure-error column uses",
        "# n - (number of distinct rank pairs). '--' marks a dataset",
        "# with no replicated rank pairs.",
        "  ".join(["Dataset".ljust(label_width)]
                  + [c.rjust(w) for c, w in zip(table["columns"], widths)]),
    ]
    for r in rows:
        cells = [("--" if v is None else f"{v:.2f}").rjust(w) for v, w in zip(r["values"], widths)]
        lines.append("  ".join([r["label"].ljust(label_width), *cells]))
    return "\n".join(lines) + "\n"


def report_text(doc: dict) -> str:
    """`report.txt`: the `report.json` object `doc` as text."""
    lof = doc["lack_of_fit"]
    lines = [table_text(doc["table"]), "", f"Lack of fit, {lof['model']}:"]
    for row in lof["rows"]:
        result = row["error"] if "error" in row else (
            f"F = {row['f_stat']:.3f} on ({row['df_lof']}, {row['df_pe']}) df, "
            f"p = {row['p_value']:.4f}")
        lines.append(f"  {row['dataset']}: {result}")
    t = doc["tuning"]
    lines += ["", f"Smoothing parameters (tuned on training 1): span = {t['span']}, "
                  f"sigma = {t['sigma']:.4g}, "
                  f"(sigma_x, sigma_y) = ({t['sigma_x']:.4g}, {t['sigma_y']:.4g}), "
                  f"GAM df per term = {t['df_per_term']}"]
    return "\n".join(lines) + "\n"


def _mean_row(label: str, rows) -> dict:
    """Each column's mean over `rows`, skipping the None of a dash."""
    cols = [[v for v in col if v is not None] for col in zip(*(r["values"] for r in rows))]
    return {"label": label, "values": [sum(c) / len(c) if c else None for c in cols]}


def benchmark(pairs, kinds, params) -> tuple[dict, list[dict]]:
    """Fit every model kind on every training set and tabulate RMSEs.

    `pairs` is a sequence of (train, validation) Dataset pairs, `kinds` a
    sequence of `models.Kind` rows, and `params` maps each smoothing
    parameter a row `needs` to its value. Each kind is fit once per pair and
    scored on both halves, which it predicts in one call. Pure error is
    computed per dataset from its own replicate groups (None when a dataset
    has no replicates).

    Returns the table and the fits. The table is the JSON object `report`
    writes: "columns" (pure error, then one per kind), "training_rows" and
    "validation_rows" (one per pair), "training_mean" and "validation_mean",
    each row a {"label", "values"} object with one float or None per column.
    `fits[i]` maps each kind's name to the model fitted on the training set
    of `pairs[i]`.
    """
    pairs = list(pairs)
    kinds = list(kinds)
    if not pairs or not kinds:
        raise ParameterError("benchmark needs at least one dataset pair and one model")
    training_rows = []
    validation_rows = []
    fits = []
    for i, (train, valid) in enumerate(pairs, start=1):
        def pure_or_none(ds):
            try:
                return pure_error(ds).rmse_pe
            except DataError:  # pure_error's only error: no replicated pair
                return None

        train_vals = [pure_or_none(train)]
        valid_vals = [pure_or_none(valid)]
        fits.append({})
        for kind in kinds:
            try:
                fitted = kind.fit(train, params)
            except RankMarginError as exc:  # anything else is a bug, with its traceback
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
        training_rows.append({"label": f"Training {i}", "values": train_vals})
        validation_rows.append({"label": f"Validation {i}", "values": valid_vals})
    table = {
        "columns": [PURE_ERROR_COLUMN, *(kind.column for kind in kinds)],
        "training_rows": training_rows,
        "validation_rows": validation_rows,
        "training_mean": _mean_row("Mean, training", training_rows),
        "validation_mean": _mean_row("Mean, validation", validation_rows),
    }
    return table, fits
