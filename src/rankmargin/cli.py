"""Command-line interface.

Subcommands:
    ingest   parse a games CSV and summarize it
    split    write train/validation CSVs
    fit      fit one model on a CSV and save it as JSON
    predict  predict a margin from a saved model file
    tune     cross-validate smoothing parameters and write the curves
    report   full benchmark: tuning curves, RMSE table, diagnostics
    synth    generate a synthetic games CSV

Exit codes: 0 success, 1 internal error, 2 usage/config/data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import models
# perfbench/spans.py wraps fit_additive, fit_quadratic, predict_additive,
# predict_kernel, predict_loess and predict_quadratic by these names, so they
# stay imported; fit, predict and report call them through models.KINDS
from .additive import component_band, fit_additive, predict_additive
from .data import Dataset, check_seed, distinct_pairs, fold_splits, parse_games, split, write_games
from .errors import ParameterError, RankMarginError
from .evaluate import benchmark, lack_of_fit, pure_error, report_text, table_text
from .kernel import bandwidth_grid, predict_kernel, select_aniso_cv, select_sigma_loo
from .loess import check_span_grid, predict_loess, select_span_cv
from .numerics import check_df
from .quadratic import fit_quadratic, predict_quadratic, predict_quadratic_arrays, studentized_residuals
from .synth import DEFAULT_COEFFICIENTS, DEFAULT_NOISE_SIGMA, DEFAULT_RANK_MAX, generate_synthetic

SCHEMA_VERSION = 1

SIGN_NOTE = "positive margins favor the road team; negative favor the home team"


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParameterError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{what} {path} is not UTF-8 text: {exc}") from None


def _read_dataset(path: str) -> Dataset:
    return parse_games(_read_text(path, "input file"))


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"expected a comma-separated list of numbers, got {text!r}") from None


# --------------------------------------------------------------------------
# model files


def _load_model_file(path: str) -> tuple[models.Kind, object]:
    try:
        doc = json.loads(_read_text(path, "model file"))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(
            f"model file {path} must hold a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 and 1.0 == 1
        raise ParameterError(
            f"model file {path} has schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    kind = doc.get("model")
    row = models.KINDS.get(kind) if isinstance(kind, str) else None  # lists are unhashable
    if row is None:
        raise ParameterError(f"model file {path} has unknown model kind {kind!r}")
    try:
        return row, row.from_payload(doc.get("payload", {}))
    except RankMarginError as exc:
        raise ParameterError(f"model file {path} has an invalid {kind!r} payload: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(
            f"model file {path} has a malformed {kind!r} payload: {exc!r}"
        ) from None


# --------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    data = _read_dataset(args.input)
    _, _, counts = distinct_pairs(data.road_ranks, data.home_ranks)
    print(f"games: {len(data)}")
    print(f"dates: {data.dates.min()} .. {data.dates.max()}")
    print(f"distinct rank pairs: {len(counts)}")
    print(f"replicated rank pairs: {int((counts > 1).sum())}")
    try:
        pe = pure_error(data)
        print(f"pure-error RMSE: {pe.rmse_pe:.2f} on {pe.df_pe} df")
    except RankMarginError:
        print("pure-error RMSE: undefined (no replicated rank pairs)")
    return 0


def cmd_split(args) -> int:
    data = _read_dataset(args.input)
    mode = "chronological" if args.split == "chrono" else args.split
    train, valid = split(data, args.train_count, mode, args.seed)
    out_dir = Path(args.out_dir)
    _write_atomic(out_dir / "train.csv", write_games(train))
    _write_atomic(out_dir / "valid.csv", write_games(valid))
    print(f"wrote {out_dir / 'train.csv'} ({len(train)} games)")
    print(f"wrote {out_dir / 'valid.csv'} ({len(valid)} games)")
    return 0


def cmd_fit(args) -> int:
    data = _read_dataset(args.input)
    rows = list(models.KINDS.values()) if args.model == "all" else [models.KINDS[args.model]]
    docs = {}  # every kind is fitted before any file is written
    for row in rows:
        params = {name: getattr(args, name) for name in row.needs}
        if None in params.values():
            flags = " and ".join("--" + name.replace("_", "-") for name in row.needs)
            raise ParameterError(f"{row.name} requires {flags}")
        payload = row.to_payload(row.fit(data, params))
        doc = {"schema_version": SCHEMA_VERSION, "model": row.name, "payload": payload}
        docs[row.name] = json.dumps(doc, indent=2)
    for kind, text in docs.items():
        # with --model all, --out is a directory
        path = Path(args.out) / f"{kind}.json" if args.model == "all" else args.out
        _write_atomic(path, text)
        print(f"wrote {path}")
    return 0


def cmd_predict(args) -> int:
    r, h = args.road_rank, args.home_rank
    if not (math.isfinite(r) and math.isfinite(h)):
        raise ParameterError(f"ranks must be finite numbers, got road={r} home={h}")
    if r < 1 or h < 1:
        raise ParameterError(f"ranks must be >= 1, got road={r} home={h}")
    row, fitted = _load_model_file(args.model_file)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        est = float(row.predict(fitted, [r], [h])[0])
    if not math.isfinite(est):
        raise ParameterError(f"{row.name} gives a non-finite margin {est} at road {r} home {h}")
    print(f"{row.name}: predicted margin (road {r} at home {h}) = {est:.2f}")
    print(SIGN_NOTE)
    return 0


TUNED = ("loess", "kernel-iso", "kernel-aniso")  # the kinds with a smoothing parameter to tune


def _tune(data: Dataset, args, kinds) -> tuple[dict, dict[str, str]]:
    """Cross-validate the smoothing parameters of `kinds` (some of TUNED) on
    `data` over the grid flags of `args`; writes nothing.

    Every grid given, the seed and the fold count are checked before any
    tuning, also one the kinds do not use (leave-one-out takes neither seed
    nor folds). A grid flag left out searches the default grid; a one-element
    grid pins the value.
    Returns the chosen values, named as `models.Kind.needs` names them, and
    the texts of the curve files by file name.
    """
    span_grid = _float_list(args.span_grid) if args.span_grid else None
    sigma_grid, sx_grid, sy_grid = (
        bandwidth_grid(_float_list(text), name) if text else None
        for text, name in ((args.sigma_grid, "sigma"), (args.sigma_x_grid, "sigma_x"),
                           (args.sigma_y_grid, "sigma_y"))
    )
    if span_grid is not None:
        check_span_grid(span_grid)
    check_seed(args.seed)
    fold_splits(len(data), args.folds, args.seed)
    chosen, files = {}, {}
    if "loess" in kinds:
        chosen["span"], curve = select_span_cv(data, span_grid, folds=args.folds, seed=args.seed)
        files["loess_cv.csv"] = ["span,rmse", *(f"{s},{r}" for s, r in curve)]
    kernel_lines = ["mode,sigma,sigma_x,sigma_y,rmse"]
    if "kernel-iso" in kinds:
        chosen["sigma"], curve = select_sigma_loo(data, sigma_grid)
        kernel_lines += [f"isotropic,{s},,,{r}" for s, r in curve]
        files["kernel_cv.csv"] = kernel_lines
    if "kernel-aniso" in kinds:
        (chosen["sigma_x"], chosen["sigma_y"]), surface = select_aniso_cv(
            data, sx_grid, sy_grid, folds=args.folds, seed=args.seed
        )
        kernel_lines += [f"anisotropic,,{sx},{sy},{r}" for sx, sy, r in surface]
        files["kernel_cv.csv"] = kernel_lines
    return chosen, {name: "\n".join(lines) + "\n" for name, lines in files.items()}


def cmd_tune(args) -> int:
    chosen, files = _tune(_read_dataset(args.input), args, [args.model])
    out_dir = Path(args.out_dir)
    for name, text in files.items():
        _write_atomic(out_dir / name, text)
    needs = models.KINDS[args.model].needs
    if len(needs) == 1:
        print(f"best {needs[0]}: {chosen[needs[0]]}")
    else:
        print(f"best ({', '.join(needs)}): {tuple(chosen[name] for name in needs)}")
    for name in files:
        print(f"wrote {out_dir / name}")
    return 0


def cmd_report(args) -> int:
    data = _read_dataset(args.input)
    train_count = max(1, round(0.75 * len(data))) if args.train_count is None else args.train_count
    first_mode = "chronological" if args.split == "chrono" else args.split
    # the first split rejects a bad --train-count or --seed, as given
    pairs = [split(data, train_count, first_mode, args.seed)]
    if args.partitions < 1:
        raise ParameterError(f"--partitions must be >= 1, got {args.partitions}")
    out_dir = Path(args.out_dir)

    for j in range(1, args.partitions):
        pairs.append(split(data, train_count, "random", args.seed + j))
    for train, _ in pairs:  # before any tuning, which takes most of a report
        check_df(args.df, min(len(np.unique(train.road_ranks)), len(np.unique(train.home_ranks))))
    # Smoothing parameters are tuned on the first training set and reused
    # everywhere, mirroring how the benchmark protocol treats them.
    tune_train = pairs[0][0]
    chosen, files = _tune(tune_train, args, TUNED)
    params = dict(chosen, df=args.df)
    table, fits = benchmark(pairs, models.KINDS.values(), params)

    # perfbench/spans.py wraps lack_of_fit, studentized_residuals and
    # component_band by their names in this module, so the report calls them here.
    # Quadratic lack of fit per training partition (descriptive elsewhere:
    # nonparametric fits have no clean parameter count, so the table's
    # RMSE-vs-pure-error columns carry that comparison instead)
    lof_rows = []
    for i, ((train, _), fitted) in enumerate(zip(pairs, fits), start=1):
        sse = fitted["quadratic"].sigma_hat**2 * (len(train) - 5)
        row = {"dataset": f"Training {i}"}
        try:
            lof = lack_of_fit(sse, 5, train)
            row.update(f_stat=lof.f_stat, df_lof=lof.df_lof, df_pe=lof.df_pe, p_value=lof.p_value)
        except RankMarginError as exc:
            row["error"] = str(exc)
        lof_rows.append(row)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tuning": {**chosen, "df_per_term": args.df},
        "table": table,
        "lack_of_fit": {"model": "quadratic regression", "rows": lof_rows},
    }
    files["report.json"] = json.dumps(doc, indent=2)
    files["report.txt"] = report_text(doc)

    qf1, gam1 = fits[0]["quadratic"], fits[0]["gam"]  # fitted on tune_train
    fitted_vals = predict_quadratic_arrays(qf1, tune_train.road_ranks, tune_train.home_ranks)
    stud = studentized_residuals(qf1, tune_train)
    resid_lines = ["fitted,studentized_residual"]
    resid_lines += [f"{f},{s}" for f, s in zip(fitted_vals, stud)]
    files["residuals_quadratic.csv"] = "\n".join(resid_lines) + "\n"

    comp_lines = ["component,rank,estimate,lower95,upper95"]
    for which, ranks in (
        ("road", tune_train.road_ranks),
        ("home", tune_train.home_ranks),
    ):
        grid = np.arange(int(ranks.min()), int(ranks.max()) + 1, dtype=float)
        est, lo, hi = component_band(gam1, which, grid)
        comp_lines += [
            f"{which},{int(g)},{e},{l},{u}" for g, e, l, u in zip(grid, est, lo, hi)
        ]
    files["gam_components.csv"] = "\n".join(comp_lines) + "\n"

    for name, text in files.items():  # every file is built before any is written
        _write_atomic(out_dir / name, text)
    print(table_text(table))
    print(f"wrote report.json, report.txt, residuals_quadratic.csv,")
    print(f"      gam_components.csv, loess_cv.csv, kernel_cv.csv in {out_dir}")
    return 0


def cmd_synth(args) -> int:
    coefficients = _float_list(args.coefficients)
    data = generate_synthetic(
        n=args.n,
        coefficients=coefficients,
        noise_sigma=args.noise_sigma,
        rank_max=args.rank_max,
        seed=args.seed,
        round_margins=True,  # CSV schema wants integer scores
    )
    _write_atomic(Path(args.out), write_games(data))
    print(f"wrote {args.out} ({len(data)} games)")
    return 0


# --------------------------------------------------------------------------
# argument parsing


def _add_tuning_flags(p) -> None:
    """The flags `_tune` reads, which `tune` and `report` share."""
    for flag, what in (("--span-grid", "spans"), ("--sigma-grid", "isotropic bandwidths"),
                       ("--sigma-x-grid", "sigma_x values"), ("--sigma-y-grid", "sigma_y values")):
        p.add_argument(flag, default=None,
                       help=f"comma-separated {what} (default grid if left out; one value pins it)")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)


@functools.cache  # main parses every argv of a process with one parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmargin",
        description="Margin-of-victory models for ranked college basketball teams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a games CSV and summarize it")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="write train/validation CSVs")
    p.add_argument("--input", required=True)
    p.add_argument("--split", choices=["chrono", "chronological", "random"], default="chrono")
    p.add_argument("--train-count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fit", help="fit one model (or all) and save as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=[*models.KINDS, "all"], required=True)
    p.add_argument("--df", type=float, default=4.0, help="GAM df per smooth term")
    p.add_argument("--span", type=float, default=0.3, help="LOESS span")
    p.add_argument("--sigma", type=float, default=None, help="isotropic kernel bandwidth")
    p.add_argument("--sigma-x", type=float, default=None)
    p.add_argument("--sigma-y", type=float, default=None)
    p.add_argument("--out", required=True,
                   help="output JSON path (a directory when --model all)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict a margin from a saved model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--road-rank", type=float, required=True)
    p.add_argument("--home-rank", type=float, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("tune", help="cross-validate smoothing parameters")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=TUNED, required=True)
    _add_tuning_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("report", help="benchmark all models and write the report")
    p.add_argument("--input", required=True)
    p.add_argument("--split", choices=["chrono", "chronological", "random"], default="chrono")
    p.add_argument("--train-count", type=int, default=None,
                   help="default: 75%% of the input")
    p.add_argument("--partitions", type=int, default=3,
                   help="total train/validation partitions (first uses --split, rest random)")
    p.add_argument("--df", type=float, default=4.0)
    _add_tuning_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic games CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--coefficients",
        default=",".join(str(c) for c in DEFAULT_COEFFICIENTS),
        help="b0,b_road,b_home,b_road_sq,b_home_sq",
    )
    p.add_argument("--noise-sigma", type=float, default=DEFAULT_NOISE_SIGMA)
    p.add_argument("--rank-max", type=int, default=DEFAULT_RANK_MAX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RankMarginError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
