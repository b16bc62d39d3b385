"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Thresholds, seeds, and grids are frozen; the empirical margins were checked
across neighboring seeds before freezing.
"""

import json
import time
import warnings

import numpy as np
import pytest

from rankmargin import cli
from rankmargin.additive import fit_additive, predict_additive_arrays
from rankmargin.data import fold_splits, split
from rankmargin.evaluate import lack_of_fit, pure_error
from rankmargin.kernel import (
    anisotropic_smoother,
    isotropic_smoother,
    predict_kernel,
    select_aniso_cv,
    select_sigma_loo,
)
from rankmargin.loess import fit_loess, predict_loess, select_span_cv
from rankmargin.models import KINDS
from rankmargin.numerics import f_cdf
from rankmargin.quadratic import fit_quadratic, predict_quadratic_arrays
from rankmargin.synth import DEFAULT_COEFFICIENTS, generate_synthetic
from util import make_dataset

import oracles


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {num} failed: {label} {tail}"


def _rmse(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(d @ d / len(d)))


def test_criterion_1_coefficient_recovery():
    t0 = time.perf_counter()
    data = generate_synthetic(6024, seed=2)
    fit = fit_quadratic(data)
    X = np.column_stack(
        [
            np.ones(len(data)),
            data.road_ranks,
            data.home_ranks,
            data.road_ranks**2,
            data.home_ranks**2,
        ]
    )
    coef, *_ = np.linalg.lstsq(X, data.movs, rcond=None)
    resid = data.movs - X @ coef
    s2 = float(resid @ resid) / (len(data) - 5)
    cov = s2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    got = np.array([fit.beta0, fit.beta_r, fit.beta_h, fit.beta_rr, fit.beta_hh])
    z = np.abs(got - np.array(DEFAULT_COEFFICIENTS)) / se
    train_rmse = _rmse(
        predict_quadratic_arrays(fit, data.road_ranks, data.home_ranks), data.movs
    )
    elapsed = time.perf_counter() - t0
    ok = bool(z.max() <= 3.0 and 11.2 <= train_rmse <= 11.8 and elapsed < 5.0)
    _verdict(
        1,
        "synthetic coefficient recovery",
        ok,
        f"max|z|={z.max():.2f}, rmse={train_rmse:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_pure_error_lower_bound():
    t0 = time.perf_counter()
    worst = np.inf
    for seed in range(50):
        data = generate_synthetic(500, seed=seed, rank_max=30)
        pe = pure_error(data)
        bound = pe.ss_pe - 1e-8 * max(1.0, pe.ss_pe)
        sigma, _ = select_sigma_loo(data, [3.0, 6.0, 12.0, 24.0, 48.0])
        (sx, sy), _ = select_aniso_cv(
            data, [10.0, 30.0], [4.0, 12.0], folds=5, seed=seed
        )
        params = dict(span=0.3, sigma=sigma, sigma_x=sx, sigma_y=sy, df=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kind in KINDS.values():
                fitted = kind.fit(data, params)
                r = kind.predict(fitted, data.road_ranks, data.home_ranks) - data.movs
                sse = float(r @ r)
                worst = min(worst, sse - bound)
    elapsed = time.perf_counter() - t0
    ok = bool(worst >= 0.0 and elapsed < 120.0)
    _verdict(
        2,
        "pure-error lower bound on training SSE",
        ok,
        f"50 datasets x 5 models, worst margin={worst:.1f}, {elapsed:.1f}s",
    )


def test_criterion_3_loess_oracle_equivalence():
    rng = np.random.default_rng(16)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(100, 501))
        rank_max = int(rng.integers(30, 301))
        data = generate_synthetic(n, seed=trial + 100, rank_max=rank_max)
        span = float(rng.uniform(0.2, 0.9))
        fit = fit_loess(data, span)
        road, home, movs = list(data.road_ranks), list(data.home_ranks), list(data.movs)
        for _ in range(20):
            qr = float(rng.uniform(1, rank_max))
            qh = float(rng.uniform(1, rank_max))
            got = predict_loess(fit, qr, qh)
            want = oracles.loess_predict_reference(road, home, movs, span, qr, qh)
            worst = max(worst, abs(got - want))
    ok = bool(worst <= 1e-8)
    _verdict(3, "LOESS oracle equivalence", ok, f"worst |diff|={worst:.2e}")


def test_criterion_4_kernel_oracle_and_rotation():
    data = generate_synthetic(400, seed=41, rank_max=80)
    road, home, movs = list(data.road_ranks), list(data.home_ranks), list(data.movs)
    rng = np.random.default_rng(42)
    iso = isotropic_smoother(data, 17.0)
    aniso_eq = anisotropic_smoother(data, 17.0, 17.0)
    aniso = anisotropic_smoother(data, 30.0, 7.0)
    worst_rel = 0.0
    worst_rot = 0.0
    for _ in range(100):
        qr = float(rng.uniform(1, 80))
        qh = float(rng.uniform(1, 80))
        got = predict_kernel(iso, qr, qh)
        want = oracles.kernel_predict_reference(road, home, movs, qr, qh, sigma=17.0)
        worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
        got = predict_kernel(aniso, qr, qh)
        want = oracles.kernel_predict_reference(
            road, home, movs, qr, qh, sigma_x=30.0, sigma_y=7.0
        )
        worst_rel = max(worst_rel, abs(got - want) / max(1.0, abs(want)))
        worst_rot = max(
            worst_rot, abs(predict_kernel(aniso_eq, qr, qh) - predict_kernel(iso, qr, qh))
        )
    ok = bool(worst_rel <= 1e-12 and worst_rot <= 1e-10)
    _verdict(
        4,
        "kernel oracle equivalence and rotation invariance",
        ok,
        f"worst rel={worst_rel:.2e}, worst rotation diff={worst_rot:.2e}",
    )


def test_criterion_5_lack_of_fit_correctness():
    data = make_dataset(
        [10, 10, 3, 3, 8, 8],
        [20, 20, 4, 4, 2, 2],
        [5.0, 9.0, 0.0, 2.0, 4.0, 4.0],
    )
    result = lack_of_fit(2041.0 / 169.0, 2, data)
    anova_ok = (
        abs(result.f_stat - 1053.0 / 1690.0) <= 1e-10
        and result.df_lof == 1
        and result.df_pe == 3
        and abs(result.p_value - 0.487540618106059) <= 1e-10
    )
    cdf_err = max(abs(f_cdf(1.0, d, d) - 0.5) for d in (1.0, 5.0, 50.0))
    ok = bool(anova_ok and cdf_err <= 1e-10)
    _verdict(
        5,
        "lack-of-fit hand ANOVA and F symmetry",
        ok,
        f"f={result.f_stat:.12f}, p={result.p_value:.12f}, cdf err={cdf_err:.2e}",
    )


def test_criterion_6_gam_structure_recovery():
    t0 = time.perf_counter()
    data = generate_synthetic(6024, seed=2)
    train, valid = split(data, 4518)
    gam = fit_additive(train)
    quad = fit_quadratic(train)
    g = _rmse(predict_additive_arrays(gam, valid.road_ranks, valid.home_ranks), valid.movs)
    q = _rmse(predict_quadratic_arrays(quad, valid.road_ranks, valid.home_ranks), valid.movs)
    elapsed = time.perf_counter() - t0
    ok = bool(
        gam.converged
        and gam.iterations_used <= 50
        and abs(g - q) <= 0.02 * q
        and elapsed < 30.0
    )
    _verdict(
        6,
        "GAM structure recovery",
        ok,
        f"sweeps={gam.iterations_used}, gam={g:.4f}, quad={q:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_benchmark_protocol(tmp_path):
    csv = tmp_path / "games.csv"
    out = tmp_path / "out"
    assert cli.main(
        ["synth", "--n", "6024", "--rank-max", "60", "--seed", "3", "--out", str(csv)]
    ) == 0
    rc = cli.main(
        [
            "report", "--input", str(csv), "--partitions", "3", "--folds", "5",
            "--span-grid", "0.3,0.5", "--sigma-grid", "12,19,30",
            "--sigma-x-grid", "30,60", "--sigma-y-grid", "8,16",
            "--out-dir", str(out),
        ]
    )
    doc = json.loads((out / "report.json").read_text())
    table = doc["table"]
    columns_ok = table["columns"] == [
        "Pure error",
        "Quadratic regression",
        "Gaussian GAM",
        "Local linear (LOESS)",
        "Isotropic kernel",
        "Anisotropic kernel",
    ]
    rows_ok = (
        table["training_mean"]["label"] == "Mean, training"
        and table["validation_mean"]["label"] == "Mean, validation"
        and len(table["validation_rows"]) == 3
    )
    vals = [
        v
        for row in (*table["validation_rows"], table["validation_mean"])
        for v in row["values"]
        if v is not None
    ]
    window_ok = all(11.0 <= v <= 12.0 for v in vals)
    ok = bool(rc == 0 and columns_ok and rows_ok and window_ok)
    _verdict(
        7,
        "benchmark protocol fidelity",
        ok,
        f"validation range [{min(vals):.2f}, {max(vals):.2f}]",
    )


def test_criterion_8_anisotropy_detection():
    rng = np.random.default_rng(0)
    n = 2500
    road = rng.integers(1, 352, n).astype(float)
    home = rng.integers(1, 352, n).astype(float)
    y = (road - home) / np.sqrt(2.0)
    movs = 14.0 * np.sin(y / 45.0) + rng.normal(0, 5.0, n)
    data = make_dataset(road, home, movs)
    sx_grid = [20.0, 60.0, 100.0]
    sy_grid = [4.0, 8.0, 14.0, 22.0, 32.0, 40.0]
    (bx, by), _ = select_aniso_cv(data, sx_grid, sy_grid, folds=5, seed=0)
    ok = bool(bx == sx_grid[-1] and sy_grid[0] < by < sy_grid[-1])
    _verdict(
        8,
        "anisotropy detection on rotated-y signal",
        ok,
        f"selected (sigma_x, sigma_y)=({bx:g}, {by:g})",
    )


def test_criterion_9_determinism(tmp_path):
    # synthetic CSV bytes
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert cli.main(
            ["synth", "--n", "500", "--rank-max", "40", "--seed", "11", "--out", str(p)]
        ) == 0
    synth_ok = p1.read_bytes() == p2.read_bytes()

    # random splits
    data = generate_synthetic(800, seed=12, rank_max=50)
    s1 = split(data, 600, "random", 5)
    s2 = split(data, 600, "random", 5)
    split_ok = all(
        np.array_equal(h1.dates, h2.dates)
        and np.array_equal(h1.movs, h2.movs)
        for h1, h2 in zip(s1, s2)
    )

    # CV folds
    f1 = [held for _, held in fold_splits(1000, 10, seed=7)]
    f2 = [held for _, held in fold_splits(1000, 10, seed=7)]
    folds_ok = all(np.array_equal(a, b) for a, b in zip(f1, f2))

    # tuning searches
    small = generate_synthetic(150, seed=13, rank_max=25)
    tune_ok = (
        select_span_cv(small, [0.4, 0.8], folds=5, seed=1)
        == select_span_cv(small, [0.4, 0.8], folds=5, seed=1)
        and select_aniso_cv(small, [10.0, 30.0], [4.0, 12.0], folds=5, seed=1)
        == select_aniso_cv(small, [10.0, 30.0], [4.0, 12.0], folds=5, seed=1)
    )

    ok = bool(synth_ok and split_ok and folds_ok and tune_ok)
    _verdict(
        9,
        "seeded operations are byte-reproducible",
        ok,
        f"synth={synth_ok}, splits={split_ok}, folds={folds_ok}, tuning={tune_ok}",
    )
