"""Checks of the program's outputs against the reference numerics in season.py.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts an operation as failed when its output has any.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

import season

COLUMNS = [
    "Pure error",
    "Quadratic regression",
    "Gaussian GAM",
    "Local linear (LOESS)",
    "Isotropic kernel",
    "Anisotropic kernel",
]
REPORT_FILES = (
    "report.json",
    "report.txt",
    "residuals_quadratic.csv",
    "gam_components.csv",
    "loess_cv.csv",
    "kernel_cv.csv",
)
RMSE_WINDOW = (11.0, 12.0)
REL = 1e-8


def _close(a, b, rel=REL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check_report(csv_text: str, files: dict, span_curve) -> list[str]:
    """Problems in one report's six files, given the season it was run on.

    `span_curve` is the LOESS CV curve computed while the season was drawn.
    """
    problems = []
    dates, road, home, movs = season.parse_csv(csv_text)
    doc = json.loads(files["report.json"])
    table, tuning = doc["table"], doc["tuning"]
    if table["columns"] != COLUMNS:
        return [f"columns {table['columns']}"]

    def expect(what, got, want, rel=REL):
        if not _close(got, want, rel):
            problems.append(f"{what}: report {got}, reference {want}")

    # imported here, after the timed loop, so that set-up does not pay for it
    from scipy.stats import f as f_dist

    partitions = season.report_partitions(dates)
    for i, (tr, va) in enumerate(partitions):
        coef = season.quadratic_fit(road[tr], home[tr], movs[tr])
        for rows, idx in (("training_rows", tr), ("validation_rows", va)):
            values = table[rows][i]["values"]
            expect(f"{rows}[{i}] pure error", values[0], season.pure_error(road[idx], home[idx], movs[idx])[0])
            pred = season.quadratic_design(road[idx], home[idx]) @ coef
            expect(f"{rows}[{i}] quadratic", values[1], season.rmse(pred, movs[idx]))
        resid = season.quadratic_design(road[tr], home[tr]) @ coef - movs[tr]
        _, ss_pe, df_pe, groups = season.pure_error(road[tr], home[tr], movs[tr])
        df_lof = groups - 5
        f_stat = (float(resid @ resid) - ss_pe) / df_lof / (ss_pe / df_pe)
        row = doc["lack_of_fit"]["rows"][i]
        if (row.get("df_lof"), row.get("df_pe")) != (df_lof, df_pe):
            problems.append(f"lack of fit {i}: df {row.get('df_lof')}, {row.get('df_pe')}")
        else:
            expect(f"lack of fit {i} F", row["f_stat"], f_stat)
            expect(f"lack of fit {i} p", row["p_value"], float(f_dist.sf(f_stat, df_lof, df_pe)), 1e-7)

    # the smoothers on the first partition, both halves, by direct sums
    tr, va = partitions[0]
    for rows, idx in (("training_rows", tr), ("validation_rows", va)):
        values = table[rows][0]["values"]
        args = (road[tr], home[tr], movs[tr])
        loess = season.loess_predict(*args, [tuning["span"]], road[idx], home[idx])[0]
        expect(f"{rows}[0] LOESS", values[3], season.rmse(loess, movs[idx]))
        s = tuning["sigma"]
        iso = season.kernel_predict(*args, road[idx], home[idx], s, s, rotated=False)
        expect(f"{rows}[0] isotropic", values[4], season.rmse(iso, movs[idx]))
        aniso = season.kernel_predict(
            *args, road[idx], home[idx], tuning["sigma_x"], tuning["sigma_y"], rotated=True
        )
        expect(f"{rows}[0] anisotropic", values[5], season.rmse(aniso, movs[idx]))

    # each tuned value is the argmin of the curve written beside it
    loess_rows = list(csv.DictReader(io.StringIO(files["loess_cv.csv"])))
    curve = [(float(r["span"]), float(r["rmse"])) for r in loess_rows]
    if season.argmin_larger(curve) != tuning["span"]:
        problems.append(f"span {tuning['span']} is not the argmin of {curve}")
    if [s for s, _ in curve] != [s for s, _ in span_curve]:
        problems.append(f"span grid {curve}")
    for (s, got), (_, want) in zip(curve, span_curve):
        expect(f"span CV at {s}", got, want)
    kernel_rows = list(csv.DictReader(io.StringIO(files["kernel_cv.csv"])))
    iso = [(float(r["sigma"]), float(r["rmse"])) for r in kernel_rows if r["mode"] == "isotropic"]
    aniso = [
        ((float(r["sigma_x"]), float(r["sigma_y"])), float(r["rmse"]))
        for r in kernel_rows
        if r["mode"] == "anisotropic"
    ]
    if season.argmin_larger(iso) != tuning["sigma"]:
        problems.append(f"sigma {tuning['sigma']} is not the argmin of {iso}")
    if season.argmin_larger(aniso) != (tuning["sigma_x"], tuning["sigma_y"]):
        problems.append(f"({tuning['sigma_x']}, {tuning['sigma_y']}) is not the argmin of {aniso}")

    # validation RMSE of every model column; the pure-error column is left out
    lo, hi = RMSE_WINDOW
    for row in (*table["validation_rows"], table["validation_mean"]):
        for name, v in zip(COLUMNS[1:], row["values"][1:]):
            if not lo <= v <= hi:
                problems.append(f"{row['label']} {name} RMSE {v} outside [{lo}, {hi}]")
    return problems


_PREDICT_LINE = re.compile(r"^(\S+): predicted margin \(road (\S+) at home (\S+)\) = (\S+)$")


def predict_reference(payload_doc: dict, road: float, home: float) -> float:
    """The margin a model file's payload gives at (road, home), evaluated directly."""
    kind, p = payload_doc["model"], payload_doc["payload"]
    if kind == "quadratic":
        return (
            p["beta0"] + p["beta_r"] * road + p["beta_h"] * home
            + p["beta_rr"] * road * road + p["beta_hh"] * home * home
            + p.get("beta_rh", 0.0) * road * home
        )
    if kind == "gam":
        f_road, f_home = p["f_road"], p["f_home"]
        return (
            p["mu"]
            + season.natural_spline(f_road["knots"], f_road["values"], road)
            + season.natural_spline(f_home["knots"], f_home["values"], home)
        )
    arrays = (np.array(p["road_ranks"]), np.array(p["home_ranks"]), np.array(p["movs"]))
    q_r, q_h = np.array([road]), np.array([home])
    if kind == "loess":
        return float(season.loess_predict(*arrays, [p["span"]], q_r, q_h, p["predictor_scales"])[0, 0])
    if kind == "kernel-iso":
        return float(season.kernel_predict(*arrays, q_r, q_h, p["sigma"], p["sigma"], rotated=False)[0])
    return float(season.kernel_predict(*arrays, q_r, q_h, p["sigma_x"], p["sigma_y"], rotated=True)[0])


def check_prediction(kind: str, road: float, home: float, stdout: str, want: float) -> list[str]:
    """Problems in one `predict` printout, which rounds to two decimals."""
    match = _PREDICT_LINE.match(stdout.split("\n", 1)[0])
    if not match:
        return [f"{kind}: unexpected output {stdout!r}"]
    got_kind, r, h, value = match.groups()
    if (got_kind, float(r), float(h)) != (kind, road, home):
        return [f"{kind}: output names {got_kind} at ({r}, {h})"]
    if not abs(float(value) - want) <= 0.005 + 1e-9:
        return [f"{kind} at ({road}, {home}): printed {value}, reference {want:.6f}"]
    return []
