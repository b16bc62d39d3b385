"""The five model kinds of the benchmark table, as one table.

`KINDS` maps each kind's name (the CLI's `--model` value and a model file's
"model" field) to a `Kind` row, in benchmark-column order:

    name          the kind, e.g. "kernel-iso"
    column        its label in the benchmark table
    needs         the smoothing parameters its fit reads; the CLI flag of
                  each is the name with "_" as "-"
    fit           fit(train, params) -> fitted model, `params` mapping each
                  name in `needs` to its value
    predict       predict(fitted, road_ranks, home_ranks) -> margins, a batch
                  predictor; one rank pair is a batch of one
    to_payload    fitted model -> the "payload" object of a model file
    from_payload  that object -> fitted model; every number and array is
                  checked, and a malformed payload raises

`model_spec`, `table_models` and the CLI's `fit`, `predict` and model-file
loading iterate this table or look a kind up in it; no other code branches
on a kind. The model-file format is defined here, apart from the quadratic
payload, which is `QuadraticFit.to_dict`/`from_dict`.

Row callables call the fit and predict functions through this module's
global names rather than holding the function objects, so that a tracer that
replaces, say, `models.predict_loess_arrays` (as `perfbench/spans.py` does)
sees every call.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .additive import AdditiveFit, fit_additive, predict_additive_arrays
from .data import Dataset
from .errors import ParameterError
from .evaluate import ModelSpec
from .kernel import KernelSmootherSpec, anisotropic_smoother, isotropic_smoother, predict_kernel_arrays
from .loess import LoessFit, fit_loess, predict_loess_arrays
from .numerics import SmoothFunction
from .quadratic import QuadraticFit, fit_quadratic, predict_quadratic_arrays


class Kind(NamedTuple):
    """One model kind; see the module docstring for the fields."""

    name: str
    column: str
    needs: tuple[str, ...]
    fit: Callable[[Dataset, Mapping[str, float]], Any]
    predict: Callable[[Any, Any, Any], np.ndarray]
    to_payload: Callable[[Any], dict]
    from_payload: Callable[[dict], Any]


# --------------------------------------------------------------------------
# model-file payloads


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


def _gam_to_payload(fit: AdditiveFit) -> dict:
    return {
        "mu": fit.mu,
        "f_road": _smooth_to_dict(fit.f_road),
        "f_home": _smooth_to_dict(fit.f_home),
        "sigma_hat": fit.sigma_hat,
        "iterations_used": fit.iterations_used,
        "converged": fit.converged,
        "n_train": fit.n_train,
    }


def _gam_from_payload(payload: dict) -> AdditiveFit:
    mu, sigma_hat = float(payload["mu"]), float(payload["sigma_hat"])
    if not (math.isfinite(mu) and math.isfinite(sigma_hat)):
        raise ParameterError(f"mu and sigma_hat must be finite, got {mu} and {sigma_hat}")
    return AdditiveFit(
        mu=mu,
        f_road=_smooth_from_dict(payload["f_road"]),
        f_home=_smooth_from_dict(payload["f_home"]),
        sigma_hat=sigma_hat,
        iterations_used=int(payload["iterations_used"]),
        converged=bool(payload["converged"]),
        n_train=int(payload["n_train"]),
    )


def _games_to_payload(fit) -> dict:
    """The training games a lazy smoother (LOESS or kernel) keeps."""
    return {
        "road_ranks": fit.road_ranks.tolist(),
        "home_ranks": fit.home_ranks.tolist(),
        "movs": fit.movs.tolist(),
    }


def _kernel_from_payload(payload: dict, sigma_x: str, sigma_y: str) -> KernelSmootherSpec:
    # the constructor checks the arrays and the bandwidths
    games = (payload["road_ranks"], payload["home_ranks"], payload["movs"])
    return KernelSmootherSpec(*games, payload[sigma_x], payload[sigma_y])


# --------------------------------------------------------------------------
# the table


KINDS: dict[str, Kind] = {row.name: row for row in (
    Kind("quadratic", "Quadratic regression", (),
         lambda train, p: fit_quadratic(train),
         lambda f, r, h: predict_quadratic_arrays(f, r, h),
         QuadraticFit.to_dict, QuadraticFit.from_dict),
    Kind("gam", "Gaussian GAM", ("df",),
         lambda train, p: fit_additive(train, df_per_term=p["df"]),
         lambda f, r, h: predict_additive_arrays(f, r, h),
         _gam_to_payload, _gam_from_payload),
    Kind("loess", "Local linear (LOESS)", ("span",),
         lambda train, p: fit_loess(train, span=p["span"]),
         lambda f, r, h: predict_loess_arrays(f, r, h),
         lambda f: {"span": f.span, "predictor_scales": list(f.predictor_scales),
                    **_games_to_payload(f)},
         # the constructor checks the arrays, the span and the scales
         lambda d: LoessFit(d["road_ranks"], d["home_ranks"], d["movs"],
                            d["span"], d["predictor_scales"])),
    Kind("kernel-iso", "Isotropic kernel", ("sigma",),
         lambda train, p: isotropic_smoother(train, p["sigma"]),
         lambda f, r, h: predict_kernel_arrays(f, r, h),
         lambda f: {**_games_to_payload(f), "sigma": f.sigma_x},
         lambda d: _kernel_from_payload(d, "sigma", "sigma")),
    Kind("kernel-aniso", "Anisotropic kernel", ("sigma_x", "sigma_y"),
         lambda train, p: anisotropic_smoother(train, p["sigma_x"], p["sigma_y"]),
         lambda f, r, h: predict_kernel_arrays(f, r, h),
         lambda f: {**_games_to_payload(f), "sigma_x": f.sigma_x, "sigma_y": f.sigma_y},
         lambda d: _kernel_from_payload(d, "sigma_x", "sigma_y")),
)}

TABLE_COLUMNS = tuple(row.column for row in KINDS.values())


def model_spec(kind: str, **params: float) -> ModelSpec:
    """The benchmark model of `kind`, with its smoothing parameters pinned:
    `params` must hold every name in the row's `needs`; others are ignored."""
    row = KINDS[kind]
    pinned = {name: params[name] for name in row.needs}

    def fit(train: Dataset):
        fitted = row.fit(train, pinned)
        return lambda r, h: row.predict(fitted, r, h)

    return ModelSpec(name=row.column, fit=fit)


def table_models(span: float, sigma: float, sigma_x: float, sigma_y: float, df: float = 4.0):
    """The five models of the benchmark table, in column order."""
    params = dict(span=span, sigma=sigma, sigma_x=sigma_x, sigma_y=sigma_y, df=df)
    return [model_spec(kind, **params) for kind in KINDS]
