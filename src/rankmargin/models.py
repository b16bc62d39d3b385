"""The five model kinds of the benchmark table, as one table.

`KINDS` maps each kind's name (the CLI's `--model` value and a model file's
"model" field) to a `Kind` row, in benchmark-column order:

    name          the kind, e.g. "kernel-iso"
    column        its label in the benchmark table
    needs         the smoothing parameters its fit reads; the CLI flag of
                  each is the name with "_" as "-"
    fit           fit(train, params) -> fitted model, `params` mapping each
                  name in `needs` (and possibly others) to its value
    predict       predict(fitted, road_ranks, home_ranks) -> margins, a batch
                  predictor; one rank pair is a batch of one
    to_payload    fitted model -> the "payload" object of a model file
    from_payload  that object -> fitted model; every number and array is
                  checked, and a malformed payload raises

`evaluate.benchmark` and the CLI's `fit`, `predict` and model-file loading
iterate this table or take rows of it; no other code branches on a kind.
The model-file format is defined here.

Row callables call the fit and predict functions through this module's
global names rather than holding the function objects, so that a tracer that
replaces, say, `models.predict_loess_arrays` (as `perfbench/spans.py` does)
sees every call.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .additive import _MAX_ITERATIONS, AdditiveFit, fit_additive, predict_additive_arrays
from .data import Dataset
from .errors import ParameterError
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


def _number(value, name: str, lo=-math.inf, hi=math.inf, integer=False):
    """A payload number, checked: a JSON number (a boolean is not one),
    finite, in [lo, hi] and, if `integer`, integral. Returns a float, or an
    int if `integer`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    number = int(value) if integer else float(value)  # int() of +-inf raises OverflowError
    if not (number == value and math.isfinite(number) and lo <= number <= hi):
        what = "an integer" if integer else "a finite number"
        raise ParameterError(f"{name} must be {what} in [{lo}, {hi}], got {value!r}")
    return number


def _array(value, name: str) -> np.ndarray:
    """A payload list as a float array. numpy reads a JSON boolean as 0 or 1,
    so a list holding one is rejected; the set of element types is the
    cheapest such check found, about a quarter of the time to decode the
    list's JSON."""
    if isinstance(value, list) and bool in set(map(type, value)):
        raise ParameterError(f"{name} must hold numbers, got a boolean")
    return np.asarray(value, dtype=float)


_QUADRATIC_BETAS = ("beta0", "beta_r", "beta_h", "beta_rr", "beta_hh")


def _quadratic_from_payload(d: dict) -> QuadraticFit:
    if "beta_rh" in d:  # a term this model cannot apply
        raise ParameterError("the model has no interaction term, got beta_rh")
    return QuadraticFit(
        **{key: _number(d[key], key) for key in _QUADRATIC_BETAS},
        sigma_hat=_number(d["sigma_hat"], "sigma_hat", 0.0),
        n_train=_number(d["n_train"], "n_train", 1, integer=True),
    )


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
        key: _array(d[key], key) for key in ("knots", "values", "second_derivatives", "knot_weights")
    }
    knots = arrays["knots"]
    if knots.ndim != 1 or len(knots) < 2 or any(a.shape != knots.shape for a in arrays.values()):
        raise ParameterError(
            "knots, values, second_derivatives and knot_weights must be lists of one length >= 2"
        )
    lam = math.inf if d["lam"] == "inf" else _number(d["lam"], "lam", 0.0)
    # a trace within lambda_for_df's tolerance of its target
    effective_df = _number(d["effective_df"], "effective_df", 2.0, len(knots) + 1e-9)
    finite = all(np.isfinite(a).all() for a in arrays.values())
    if not (finite and (np.diff(knots) > 0.0).all() and (arrays["knot_weights"] > 0.0).all()):
        raise ParameterError(
            "a smooth term needs finite values, increasing knots and knot_weights > 0"
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
    converged = payload["converged"]
    if not isinstance(converged, bool):
        raise ParameterError(f"converged must be true or false, got {converged!r}")
    return AdditiveFit(
        mu=_number(payload["mu"], "mu"),
        f_road=_smooth_from_dict(payload["f_road"]),
        f_home=_smooth_from_dict(payload["f_home"]),
        sigma_hat=_number(payload["sigma_hat"], "sigma_hat", 0.0),
        iterations_used=_number(payload["iterations_used"], "iterations_used", 1,
                                _MAX_ITERATIONS, integer=True),
        converged=converged,
        n_train=_number(payload["n_train"], "n_train", 1, integer=True),
    )


def _games_to_payload(fit) -> dict:
    """The training games a lazy smoother (LOESS or kernel) keeps."""
    return {
        "road_ranks": fit.road_ranks.tolist(),
        "home_ranks": fit.home_ranks.tolist(),
        "movs": fit.movs.tolist(),
    }


def _games_from_payload(payload: dict) -> tuple:
    return tuple(_array(payload[key], key) for key in ("road_ranks", "home_ranks", "movs"))


def _kernel_from_payload(payload: dict, sigma_x: str, sigma_y: str) -> KernelSmootherSpec:
    # the constructor checks the arrays and the bandwidths' range
    sigmas = (_number(payload[sigma_x], sigma_x, 0.0), _number(payload[sigma_y], sigma_y, 0.0))
    return KernelSmootherSpec(*_games_from_payload(payload), *sigmas)


# --------------------------------------------------------------------------
# the table


KINDS: dict[str, Kind] = {row.name: row for row in (
    Kind("quadratic", "Quadratic regression", (),
         lambda train, p: fit_quadratic(train),
         lambda f, r, h: predict_quadratic_arrays(f, r, h),
         lambda f: {key: getattr(f, key) for key in (*_QUADRATIC_BETAS, "sigma_hat", "n_train")},
         _quadratic_from_payload),
    Kind("gam", "Gaussian GAM", ("df",),
         lambda train, p: fit_additive(train, df_per_term=p["df"]),
         lambda f, r, h: predict_additive_arrays(f, r, h),
         _gam_to_payload, _gam_from_payload),
    Kind("loess", "Local linear (LOESS)", ("span",),
         lambda train, p: fit_loess(train, span=p["span"]),
         lambda f, r, h: predict_loess_arrays(f, r, h),
         lambda f: {"span": f.span, "predictor_scales": list(f.predictor_scales),
                    **_games_to_payload(f)},
         # the constructor checks the arrays and the range of the span and scales
         lambda d: LoessFit(*_games_from_payload(d), _number(d["span"], "span"),
                            [_number(s, "predictor_scales") for s in d["predictor_scales"]])),
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

