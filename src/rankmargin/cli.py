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
import json
import math
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import models
from .additive import AdditiveFit, check_df_per_term, component_band, fit_additive, predict_additive
from .data import Dataset, SplitSpec, parse_games, split, training_arrays, write_games
from .errors import ParameterError, RankMarginError
from .evaluate import benchmark, lack_of_fit, pure_error
from .kernel import (
    KernelSmootherSpec,
    anisotropic_smoother,
    bandwidth_grid,
    isotropic_smoother,
    predict_kernel,
    select_aniso_cv,
    select_sigma_loo,
)
from .loess import LoessFit, fit_loess, predict_loess, select_span_cv
from .numerics import SmoothFunction
from .quadratic import QuadraticFit, fit_quadratic, predict_quadratic, studentized_residuals
from .synth import DEFAULT_COEFFICIENTS, generate_synthetic

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


def _read_dataset(path: str) -> Dataset:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ParameterError(f"input file not found: {path}") from None
    return parse_games(text)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"expected a comma-separated list of numbers, got {text!r}") from None


# --------------------------------------------------------------------------
# model file serialization


def _smooth_to_dict(sf: SmoothFunction) -> dict:
    return {
        "knots": sf.knots.tolist(),
        "values": sf.values.tolist(),
        "second_derivatives": sf.second_derivatives.tolist(),
        "lam": "inf" if math.isinf(sf.lam) else sf.lam,
        "effective_df": sf.effective_df,
        "knot_weights": sf.knot_weights.tolist(),
    }


def _smooth_from_dict(d: dict) -> SmoothFunction:
    arrays = {
        key: np.array(d[key], dtype=float)
        for key in ("knots", "values", "second_derivatives", "knot_weights")
    }
    knots = arrays["knots"]
    if knots.ndim != 1 or len(knots) < 2 or any(a.shape != knots.shape for a in arrays.values()):
        raise ParameterError(
            "knots, values, second_derivatives and knot_weights must be lists of one length >= 2"
        )
    lam = math.inf if d["lam"] == "inf" else float(d["lam"])
    effective_df = float(d["effective_df"])
    finite = all(np.isfinite(a).all() for a in arrays.values()) and math.isfinite(effective_df)
    if not (finite and lam >= 0.0 and (np.diff(knots) > 0.0).all()):
        raise ParameterError(
            "a smooth term needs finite values, increasing knots and lam >= 0 (or \"inf\")"
        )
    return SmoothFunction(lam=lam, effective_df=effective_df, **arrays)


def _model_payload(kind: str, fitted) -> dict:
    if kind == "quadratic":
        return fitted.to_dict()
    if kind == "gam":
        return {
            "mu": fitted.mu,
            "f_road": _smooth_to_dict(fitted.f_road),
            "f_home": _smooth_to_dict(fitted.f_home),
            "sigma_hat": fitted.sigma_hat,
            "iterations_used": fitted.iterations_used,
            "converged": fitted.converged,
            "n_train": fitted.n_train,
        }
    if kind == "loess":
        return {
            "span": fitted.span,
            "predictor_scales": list(fitted.predictor_scales),
            "road_ranks": fitted.road_ranks.tolist(),
            "home_ranks": fitted.home_ranks.tolist(),
            "movs": fitted.movs.tolist(),
        }
    if kind in ("kernel-iso", "kernel-aniso"):
        payload = {
            "road_ranks": fitted.road_ranks.tolist(),
            "home_ranks": fitted.home_ranks.tolist(),
            "movs": fitted.movs.tolist(),
        }
        if kind == "kernel-iso":
            payload["sigma"] = fitted.sigma_x
        else:
            payload["sigma_x"] = fitted.sigma_x
            payload["sigma_y"] = fitted.sigma_y
        return payload
    raise ParameterError(f"unknown model kind {kind!r}")


def _loess_from_payload(payload: dict) -> LoessFit:
    road, home, movs = training_arrays(
        payload["road_ranks"], payload["home_ranks"], payload["movs"]
    )
    span = float(payload["span"])
    if not 0.0 < span <= 1.0:
        raise ParameterError(f"span must be in (0, 1], got {span}")
    if math.ceil(span * len(movs)) < 3:
        raise ParameterError(f"span {span} keeps fewer than 3 of {len(movs)} points")
    scales = tuple(float(s) for s in payload["predictor_scales"])
    if len(scales) != 2 or not all(math.isfinite(s) and s > 0.0 for s in scales):
        raise ParameterError(f"predictor_scales must be two finite numbers > 0, got {scales}")
    return LoessFit(road, home, movs, span=span, predictor_scales=scales)


def _load_model_file(path: str):
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ParameterError(f"model file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParameterError(
            f"model file {path} must hold a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParameterError(
            f"model file {path} has schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    kind = doc.get("model")
    payload = doc.get("payload", {})
    try:
        if kind == "quadratic":
            return kind, QuadraticFit.from_dict(payload)
        if kind == "gam":
            mu, sigma_hat = float(payload["mu"]), float(payload["sigma_hat"])
            if not (math.isfinite(mu) and math.isfinite(sigma_hat)):
                raise ParameterError(f"mu and sigma_hat must be finite, got {mu} and {sigma_hat}")
            return kind, AdditiveFit(
                mu=mu,
                f_road=_smooth_from_dict(payload["f_road"]),
                f_home=_smooth_from_dict(payload["f_home"]),
                sigma_hat=sigma_hat,
                iterations_used=int(payload["iterations_used"]),
                converged=bool(payload["converged"]),
                n_train=int(payload["n_train"]),
            )
        if kind == "loess":
            return kind, _loess_from_payload(payload)
        if kind in ("kernel-iso", "kernel-aniso"):
            arrays = (payload["road_ranks"], payload["home_ranks"], payload["movs"])
            if kind == "kernel-iso":
                return kind, KernelSmootherSpec(*arrays, payload["sigma"], payload["sigma"])
            return kind, KernelSmootherSpec(*arrays, payload["sigma_x"], payload["sigma_y"])
    except RankMarginError as exc:
        raise ParameterError(f"model file {path} has an invalid {kind!r} payload: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(
            f"model file {path} has a malformed {kind!r} payload: {exc!r}"
        ) from None
    raise ParameterError(f"model file {path} has unknown model kind {kind!r}")


# --------------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    data = _read_dataset(args.input)
    dates = [g.date for g in data.games]
    replicated = sum(1 for idx in data.replicate_index.values() if len(idx) > 1)
    print(f"games: {len(data)}")
    print(f"dates: {min(dates)} .. {max(dates)}")
    print(f"distinct rank pairs: {len(data.replicate_index)}")
    print(f"replicated rank pairs: {replicated}")
    try:
        pe = pure_error(data)
        print(f"pure-error RMSE: {pe.rmse_pe:.2f} on {pe.df_pe} df")
    except RankMarginError:
        print("pure-error RMSE: undefined (no replicated rank pairs)")
    return 0


def cmd_split(args) -> int:
    data = _read_dataset(args.input)
    mode = "chronological" if args.split == "chrono" else args.split
    spec = SplitSpec(train_count=args.train_count, mode=mode, seed=args.seed)
    train, valid = split(data, spec)
    out_dir = Path(args.out_dir)
    _write_atomic(out_dir / "train.csv", write_games(train))
    _write_atomic(out_dir / "valid.csv", write_games(valid))
    print(f"wrote {out_dir / 'train.csv'} ({len(train)} games)")
    print(f"wrote {out_dir / 'valid.csv'} ({len(valid)} games)")
    return 0


def _fit_for_kind(args, data: Dataset):
    kind = args.model
    if kind == "quadratic":
        return fit_quadratic(data)
    if kind == "gam":
        return fit_additive(data, df_per_term=args.df)
    if kind == "loess":
        return fit_loess(data, span=args.span)
    if kind == "kernel-iso":
        if args.sigma is None:
            raise ParameterError("kernel-iso requires --sigma")
        return isotropic_smoother(data, args.sigma)
    if kind == "kernel-aniso":
        if args.sigma_x is None or args.sigma_y is None:
            raise ParameterError("kernel-aniso requires --sigma-x and --sigma-y")
        return anisotropic_smoother(data, args.sigma_x, args.sigma_y)
    raise ParameterError(f"unknown model {kind!r}")


def cmd_fit(args) -> int:
    data = _read_dataset(args.input)
    if args.model == "all":
        # --out is a directory; every hyperparameter must be pinned
        out_dir = Path(args.out)
        for kind in ("quadratic", "gam", "loess", "kernel-iso", "kernel-aniso"):
            sub_args = argparse.Namespace(**vars(args))
            sub_args.model = kind
            fitted = _fit_for_kind(sub_args, data)
            doc = {
                "schema_version": SCHEMA_VERSION,
                "model": kind,
                "payload": _model_payload(kind, fitted),
            }
            _write_atomic(out_dir / f"{kind}.json", json.dumps(doc, indent=2))
            print(f"wrote {out_dir / (kind + '.json')}")
        return 0
    fitted = _fit_for_kind(args, data)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": args.model,
        "payload": _model_payload(args.model, fitted),
    }
    _write_atomic(Path(args.out), json.dumps(doc, indent=2))
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    r, h = args.road_rank, args.home_rank
    if not (math.isfinite(r) and math.isfinite(h)):
        raise ParameterError(f"ranks must be finite numbers, got road={r} home={h}")
    if r < 1 or h < 1:
        raise ParameterError(f"ranks must be >= 1, got road={r} home={h}")
    kind, fitted = _load_model_file(args.model_file)
    if kind == "quadratic":
        est = predict_quadratic(fitted, r, h)
    elif kind == "gam":
        est = predict_additive(fitted, r, h)
    elif kind == "loess":
        est = predict_loess(fitted, r, h)
    else:
        est = predict_kernel(fitted, r, h)
    print(f"{kind}: predicted margin (road {r} at home {h}) = {est:.2f}")
    print(SIGN_NOTE)
    return 0


def cmd_tune(args) -> int:
    data = _read_dataset(args.input)
    out_dir = Path(args.out_dir)
    if args.model == "loess":
        grid = _float_list(args.span_grid) if args.span_grid else None
        best, curve = select_span_cv(data, grid, folds=args.folds, seed=args.seed)
        _write_atomic(out_dir / "loess_cv.csv", _loess_curve_csv(curve))
        print(f"best span: {best}")
        print(f"wrote {out_dir / 'loess_cv.csv'}")
    elif args.model == "kernel-iso":
        grid = _float_list(args.sigma_grid) if args.sigma_grid else None
        best, curve = select_sigma_loo(data, grid)
        _write_atomic(out_dir / "kernel_cv.csv", _kernel_curve_csv(curve, []))
        print(f"best sigma: {best}")
        print(f"wrote {out_dir / 'kernel_cv.csv'}")
    elif args.model == "kernel-aniso":
        gx = _float_list(args.sigma_x_grid) if args.sigma_x_grid else None
        gy = _float_list(args.sigma_y_grid) if args.sigma_y_grid else None
        best, surface = select_aniso_cv(data, gx, gy, folds=args.folds, seed=args.seed)
        _write_atomic(out_dir / "kernel_cv.csv", _kernel_curve_csv([], surface))
        print(f"best (sigma_x, sigma_y): {best}")
        print(f"wrote {out_dir / 'kernel_cv.csv'}")
    else:
        raise ParameterError(f"tune supports loess, kernel-iso, kernel-aniso; got {args.model!r}")
    return 0


def _loess_curve_csv(curve) -> str:
    lines = ["span,rmse"]
    lines += [f"{s},{r}" for s, r in curve]
    return "\n".join(lines) + "\n"


def _kernel_curve_csv(iso_curve, aniso_surface) -> str:
    lines = ["mode,sigma,sigma_x,sigma_y,rmse"]
    lines += [f"isotropic,{s},,,{r}" for s, r in iso_curve]
    lines += [f"anisotropic,,{sx},{sy},{r}" for sx, sy, r in aniso_surface]
    return "\n".join(lines) + "\n"


def _bandwidth_flags(pin, grid_text, name):
    """The grid `report` searches for one bandwidth: the pinned value, else
    the grid flag, else None for the default. Every value given is checked."""
    grid = bandwidth_grid(_float_list(grid_text), name) if grid_text else None
    return bandwidth_grid([pin], name) if pin is not None else grid


def cmd_report(args) -> int:
    data = _read_dataset(args.input)
    n = len(data)
    train_count = args.train_count if args.train_count is not None else max(1, round(0.75 * n))
    if not 0 < train_count < n:
        raise ParameterError(f"--train-count must be in [1, {n - 1}], got {train_count}")
    if args.partitions < 1:
        raise ParameterError(f"--partitions must be >= 1, got {args.partitions}")
    out_dir = Path(args.out_dir)

    pairs = []
    for j in range(1, args.partitions + 1):
        if j == 1:
            mode = "chronological" if args.split == "chrono" else args.split
            spec = SplitSpec(train_count=train_count, mode=mode, seed=args.seed)
        else:
            spec = SplitSpec(train_count=train_count, mode="random", seed=args.seed + j - 1)
        pairs.append(split(data, spec))
    for train, _ in pairs:  # before any tuning, which takes most of a report
        check_df_per_term(train, args.df)
    sigma_grid = _bandwidth_flags(args.sigma, args.sigma_grid, "sigma")
    sx_grid = _bandwidth_flags(args.sigma_x, args.sigma_x_grid, "sigma_x")
    sy_grid = _bandwidth_flags(args.sigma_y, args.sigma_y_grid, "sigma_y")
    tune_train = pairs[0][0]

    # Smoothing parameters are tuned on the first training set and reused
    # everywhere, mirroring how the benchmark protocol treats them.
    span_grid = [args.span] if args.span is not None else (
        _float_list(args.span_grid) if args.span_grid else None
    )
    chosen_span, loess_curve = select_span_cv(
        tune_train, span_grid, folds=args.folds, seed=args.seed
    )
    chosen_sigma, iso_curve = select_sigma_loo(tune_train, sigma_grid)
    (chosen_sx, chosen_sy), aniso_surface = select_aniso_cv(
        tune_train, sx_grid, sy_grid, folds=args.folds, seed=args.seed
    )
    _write_atomic(out_dir / "loess_cv.csv", _loess_curve_csv(loess_curve))
    _write_atomic(out_dir / "kernel_cv.csv", _kernel_curve_csv(iso_curve, aniso_surface))

    table = benchmark(
        pairs,
        models.table_models(
            span=chosen_span, sigma=chosen_sigma, sigma_x=chosen_sx, sigma_y=chosen_sy, df=args.df
        ),
    )

    # quadratic lack of fit per training partition (descriptive elsewhere:
    # nonparametric fits have no clean parameter count, so the table's
    # RMSE-vs-pure-error columns carry that comparison instead)
    lof_rows = []
    for i, (train, _) in enumerate(pairs, start=1):
        qf = fit_quadratic(train)
        sse = qf.sigma_hat**2 * (len(train) - 5)
        try:
            lof = lack_of_fit(sse, 5, train)
            lof_rows.append(
                {
                    "dataset": f"Training {i}",
                    "f_stat": lof.f_stat,
                    "df_lof": lof.df_lof,
                    "df_pe": lof.df_pe,
                    "p_value": lof.p_value,
                }
            )
        except RankMarginError as exc:
            lof_rows.append({"dataset": f"Training {i}", "error": str(exc)})

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tuning": {
            "span": chosen_span,
            "sigma": chosen_sigma,
            "sigma_x": chosen_sx,
            "sigma_y": chosen_sy,
            "df_per_term": args.df,
        },
        "table": table.to_dict(),
        "lack_of_fit": {"model": "quadratic regression", "rows": lof_rows},
    }
    _write_atomic(out_dir / "report.json", json.dumps(doc, indent=2))

    text_lines = [table.to_text()]
    text_lines.append("")
    text_lines.append("Lack of fit, quadratic regression:")
    for row in lof_rows:
        if "error" in row:
            text_lines.append(f"  {row['dataset']}: {row['error']}")
        else:
            text_lines.append(
                f"  {row['dataset']}: F = {row['f_stat']:.3f} on ({row['df_lof']}, {row['df_pe']}) df, "
                f"p = {row['p_value']:.4f}"
            )
    text_lines.append("")
    text_lines.append(
        f"Smoothing parameters (tuned on training 1): span = {chosen_span}, "
        f"sigma = {chosen_sigma:.4g}, (sigma_x, sigma_y) = ({chosen_sx:.4g}, {chosen_sy:.4g}), "
        f"GAM df per term = {args.df}"
    )
    _write_atomic(out_dir / "report.txt", "\n".join(text_lines) + "\n")

    qf1 = fit_quadratic(tune_train)
    from .quadratic import predict_quadratic_arrays

    fitted_vals = predict_quadratic_arrays(qf1, tune_train.road_ranks, tune_train.home_ranks)
    stud = studentized_residuals(qf1, tune_train)
    resid_lines = ["fitted,studentized_residual"]
    resid_lines += [f"{f},{s}" for f, s in zip(fitted_vals, stud)]
    _write_atomic(out_dir / "residuals_quadratic.csv", "\n".join(resid_lines) + "\n")

    gam1 = fit_additive(tune_train, df_per_term=args.df)
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
    _write_atomic(out_dir / "gam_components.csv", "\n".join(comp_lines) + "\n")

    print(table.to_text())
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

    model_choices = ["quadratic", "gam", "loess", "kernel-iso", "kernel-aniso"]

    p = sub.add_parser("fit", help="fit one model (or all) and save as JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--model", choices=model_choices + ["all"], required=True)
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
    p.add_argument("--model", choices=["loess", "kernel-iso", "kernel-aniso"], required=True)
    p.add_argument("--span-grid", default=None, help="comma-separated spans")
    p.add_argument("--sigma-grid", default=None, help="comma-separated sigmas")
    p.add_argument("--sigma-x-grid", default=None)
    p.add_argument("--sigma-y-grid", default=None)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("report", help="benchmark all models and write the report")
    p.add_argument("--input", required=True)
    p.add_argument("--split", choices=["chrono", "chronological", "random"], default="chrono")
    p.add_argument("--train-count", type=int, default=None,
                   help="default: 75%% of the input")
    p.add_argument("--partitions", type=int, default=3,
                   help="total train/validation partitions (first uses --split, rest random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--df", type=float, default=4.0)
    p.add_argument("--span", type=float, default=None, help="pin the LOESS span (skips grid)")
    p.add_argument("--sigma", type=float, default=None, help="pin the isotropic bandwidth")
    p.add_argument("--sigma-x", type=float, default=None)
    p.add_argument("--sigma-y", type=float, default=None)
    p.add_argument("--span-grid", default=None)
    p.add_argument("--sigma-grid", default=None)
    p.add_argument("--sigma-x-grid", default=None)
    p.add_argument("--sigma-y-grid", default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic games CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--coefficients",
        default=",".join(str(c) for c in DEFAULT_COEFFICIENTS),
        help="b0,b_road,b_home,b_road_sq,b_home_sq",
    )
    p.add_argument("--noise-sigma", type=float, default=11.5)
    p.add_argument("--rank-max", type=int, default=351)
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
    except RankMarginError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
