"""End-to-end CLI behavior through cli.main plus console-script smoke tests."""

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmargin import additive, cli, evaluate, models
from rankmargin.data import parse_games
from rankmargin.kernel import anisotropic_smoother, isotropic_smoother, predict_kernel

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data" / "games_sample.csv"


@pytest.fixture(scope="module")
def games_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "games.csv"
    rc = cli.main(
        ["synth", "--n", "240", "--rank-max", "25", "--seed", "5", "--out", str(path)]
    )
    assert rc == 0
    return path


def test_ingest_summarizes(games_csv, capsys):
    assert cli.main(["ingest", "--input", str(games_csv)]) == 0
    out = capsys.readouterr().out
    assert "games: 240" in out
    assert "distinct rank pairs:" in out
    assert "pure-error RMSE:" in out and " df" in out


def test_ingest_accepts_a_byte_order_mark(tmp_path, capsys):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + SAMPLE.read_bytes())
    assert cli.main(["ingest", "--input", str(SAMPLE)]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["ingest", "--input", str(marked)]) == 0
    assert capsys.readouterr().out == plain


def test_ingest_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert cli.main(["ingest", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "input file not found" in err and str(missing) in err


def test_split_writes_both_halves(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "split", "--input", str(games_csv), "--split", "chrono",
            "--train-count", "180", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    train = parse_games((tmp_path / "train.csv").read_text())
    valid = parse_games((tmp_path / "valid.csv").read_text())
    assert len(train) == 180 and len(valid) == 60
    assert train.dates.max() <= valid.dates.min()
    out = capsys.readouterr().out
    assert "train.csv (180 games)" in out


def test_split_random_needs_seed(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "split", "--input", str(games_csv), "--split", "random",
            "--train-count", "180", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,extra",
    [
        ("quadratic", []),
        ("gam", ["--df", "4"]),
        ("loess", ["--span", "0.5"]),
        ("kernel-iso", ["--sigma", "6"]),
        ("kernel-aniso", ["--sigma-x", "20", "--sigma-y", "5"]),
    ],
)
def test_fit_then_predict_each_model(games_csv, tmp_path, capsys, model, extra):
    model_file = tmp_path / f"{model}.json"
    rc = cli.main(
        ["fit", "--input", str(games_csv), "--model", model, "--out", str(model_file)]
        + extra
    )
    assert rc == 0
    doc = json.loads(model_file.read_text())
    assert doc["schema_version"] == 1
    assert doc["model"] == model
    rc = cli.main(
        [
            "predict", "--model-file", str(model_file),
            "--road-rank", "5", "--home-rank", "20",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"{model}: predicted margin (road 5.0 at home 20.0) = " in out
    assert cli.SIGN_NOTE in out


def test_fit_all_writes_five_files(games_csv, tmp_path):
    rc = cli.main(
        [
            "fit", "--input", str(games_csv), "--model", "all",
            "--span", "0.4", "--sigma", "6", "--sigma-x", "20", "--sigma-y", "5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    for kind in ("quadratic", "gam", "loess", "kernel-iso", "kernel-aniso"):
        assert (tmp_path / f"{kind}.json").exists()


def test_fit_kernel_requires_sigma(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "fit", "--input", str(games_csv), "--model", "kernel-iso",
            "--out", str(tmp_path / "k.json"),
        ]
    )
    assert rc == 2
    assert "--sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, flags",
    [
        ("kernel-iso", ["--sigma", "1e-200"]),
        ("kernel-aniso", ["--sigma-x", "20", "--sigma-y", "1e-170"]),
    ],
)
def test_fit_rejects_underflowing_bandwidth(games_csv, tmp_path, capsys, model, flags):
    # its square is 0, so every scaled distance would be inf or nan
    out = tmp_path / "k.json"
    rc = cli.main(["fit", "--input", str(games_csv), "--model", model, *flags, "--out", str(out)])
    assert rc == 2
    assert "does not underflow" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sigma-x", "20", "--sigma-y", "5"], "kernel-iso requires --sigma"),
        (["--sigma", "1e-200", "--sigma-x", "20", "--sigma-y", "5"], "does not underflow"),
    ],
    ids=["missing-sigma", "underflowing-sigma"],
)
def test_fit_all_writes_nothing_unless_every_kind_fits(games_csv, tmp_path, capsys, flags, message):
    rc = cli.main(["fit", "--input", str(games_csv), "--model", "all", *flags, "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_predict_reference_coefficients(tmp_path, capsys):
    model_file = tmp_path / "quad.json"
    model_file.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "model": "quadratic",
                "payload": {
                    "beta0": -5.8,
                    "beta_r": -0.074,
                    "beta_h": 0.10,
                    "beta_rr": 4.7e-5,
                    "beta_hh": -1.2e-4,
                    "sigma_hat": 11.5,
                    "n_train": 4518,
                },
            }
        )
    )
    rc = cli.main(
        ["predict", "--model-file", str(model_file), "--road-rank", "100", "--home-rank", "100"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "= -3.93" in out
    assert "positive margins favor the road team" in out
    rc = cli.main(
        ["predict", "--model-file", str(model_file), "--road-rank", "1", "--home-rank", "351"]
    )
    assert rc == 0
    assert "= 14.44" in capsys.readouterr().out


def test_predict_rejects_bad_model_files(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json {{{")
    rc = cli.main(
        ["predict", "--model-file", str(garbled), "--road-rank", "1", "--home-rank", "2"]
    )
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err

    wrong_version = tmp_path / "wrong.json"
    wrong_version.write_text(json.dumps({"schema_version": 99, "model": "quadratic"}))
    rc = cli.main(
        ["predict", "--model-file", str(wrong_version), "--road-rank", "1", "--home-rank", "2"]
    )
    assert rc == 2
    assert "schema_version" in capsys.readouterr().err

    rc = cli.main(
        ["predict", "--model-file", str(tmp_path / "absent.json"), "--road-rank", "1", "--home-rank", "2"]
    )
    assert rc == 2
    assert "model file not found" in capsys.readouterr().err

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "model": "quadratic",
                "payload": {"coefficients": [-5.8, -0.074, 0.10, 4.7e-5, -1.2e-4]},
            }
        )
    )
    rc = cli.main(
        ["predict", "--model-file", str(incomplete), "--road-rank", "1", "--home-rank", "2"]
    )
    assert rc == 2
    assert "malformed 'quadratic' payload" in capsys.readouterr().err

    bad_loess = tmp_path / "bad_loess.json"
    bad_loess.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "model": "loess",
                "payload": {"road_ranks": [1, 2, 3], "home_ranks": [1, 2, 3]},
            }
        )
    )
    rc = cli.main(
        ["predict", "--model-file", str(bad_loess), "--road-rank", "1", "--home-rank", "2"]
    )
    assert rc == 2
    assert "malformed 'loess' payload" in capsys.readouterr().err


def test_predict_rejects_invalid_rank(tmp_path, capsys):
    model_file = tmp_path / "quad.json"
    model_file.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "model": "quadratic",
                "payload": {
                    "beta0": 0.0, "beta_r": 0.0, "beta_h": 0.0,
                    "beta_rr": 0.0, "beta_hh": 0.0, "sigma_hat": 1.0, "n_train": 10,
                },
            }
        )
    )
    rc = cli.main(
        ["predict", "--model-file", str(model_file), "--road-rank", "0", "--home-rank", "2"]
    )
    assert rc == 2
    assert "ranks must be >= 1" in capsys.readouterr().err


def _loess_doc(**changes):
    payload = {
        "span": 0.5,
        "predictor_scales": [2.0, 3.0],
        "road_ranks": [1, 2, 3, 4, 5, 6, 7, 8],
        "home_ranks": [2, 5, 1, 7, 3, 8, 4, 6],
        "movs": [3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0],
    }
    payload.update(changes)
    return {"schema_version": 1, "model": "loess", "payload": payload}


def _predict_file(tmp_path, doc, road="3", home="4"):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    return cli.main(
        ["predict", "--model-file", str(model_file), f"--road-rank={road}", f"--home-rank={home}"]
    )


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["road", "home"])
def test_predict_rejects_non_finite_rank(tmp_path, capsys, flag, value):
    ranks = {"road": "3", "home": "4", flag: value}
    assert _predict_file(tmp_path, _loess_doc(), **ranks) == 2
    captured = capsys.readouterr()
    assert "ranks must be finite" in captured.err
    assert captured.out == ""


def test_predict_rejects_non_object_model_file(tmp_path, capsys):
    assert _predict_file(tmp_path, [_loess_doc()]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"movs": [3.0, -1.0, 4.0]}, "lists of one length"),
        ({"home_ranks": [2, 5, 1, 7, 3, 8, 4, 6, 9]}, "lists of one length"),
        ({"movs": [3.0, -1.0, 4.0, 1.0, float("nan"), 9.0, 2.0, -6.0]}, "must be finite"),
        ({"road_ranks": [1, 2, 3, float("inf"), 5, 6, 7, 8]}, "must be finite"),
        ({"span": float("nan")}, "span must be a finite number"),
        ({"span": 5}, "span must be in (0, 1]"),
        ({"span": 0.25}, "keeps fewer than 3"),
        ({"predictor_scales": [0.0, 3.0]}, "predictor_scales"),
        ({"predictor_scales": [2.0, float("inf")]}, "predictor_scales"),
        ({"predictor_scales": [2.0]}, "predictor_scales"),
    ],
    ids=[
        "short-movs", "long-home", "nan-mov", "inf-rank", "nan-span", "span-5",
        "span-keeps-2", "zero-scale", "inf-scale", "one-scale",
    ],
)
def test_predict_rejects_invalid_loess_payload(tmp_path, capsys, changes, message):
    assert _predict_file(tmp_path, _loess_doc(**changes)) == 2
    err = capsys.readouterr().err
    assert "invalid 'loess' payload" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind", ["svm", ["quadratic"], {"k": 1}, None, "absent"],
    ids=["svm", "list", "object", "null", "absent"],
)
def test_predict_rejects_unknown_model_kind(tmp_path, capsys, kind):
    doc = _loess_doc()
    if kind == "absent":
        del doc["model"]
    else:
        doc["model"] = kind
    assert _predict_file(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert "unknown model kind" in captured.err
    assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def model_docs(games_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    rc = cli.main(
        [
            "fit", "--input", str(games_csv), "--model", "all", "--span", "0.4",
            "--sigma", "6", "--sigma-x", "20", "--sigma-y", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    return {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")}


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc["payload"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return doc


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        ("kernel-iso", ["sigma"], NAN, "sigma must be a finite number"),
        ("kernel-iso", ["road_ranks"], lambda ranks: [r + 0.7 for r in ranks], "integers >= 1"),
        ("kernel-aniso", ["sigma_y"], 0.0, "bandwidths must be finite and > 0"),
        ("kernel-iso", ["sigma"], 1e-200, "a square that does not underflow"),
        ("kernel-aniso", ["home_ranks", 0], 0, "integers >= 1"),
        ("kernel-aniso", ["movs", 3], NAN, "must be finite"),
        ("kernel-aniso", ["movs"], lambda movs: movs[:-1], "lists of one length"),
        ("kernel-iso", ["road_ranks"], [], "lists of one length"),
        ("quadratic", ["beta0"], NAN, "beta0 must be a finite number"),
        ("quadratic", ["beta_hh"], float("inf"), "beta_hh must be a finite number"),
        ("gam", ["f_road", "values", 2], NAN, "finite values"),
        ("gam", ["f_home", "knots", 0], NAN, "finite values"),
        ("gam", ["mu"], NAN, "mu must be a finite number"),
        ("quadratic", ["beta_rh"], 3e-4, "no interaction term"),
        ("quadratic", ["n_train"], INF, "OverflowError"),
        ("quadratic", ["n_train"], -INF, "OverflowError"),
        ("gam", ["n_train"], INF, "OverflowError"),
        ("gam", ["n_train"], -INF, "OverflowError"),
        ("gam", ["iterations_used"], INF, "OverflowError"),
        ("gam", ["iterations_used"], -INF, "OverflowError"),
        # fields predict never reads, and booleans where numbers belong
        ("quadratic", ["n_train"], -1, "n_train must be an integer"),
        ("quadratic", ["sigma_hat"], -1.0, "sigma_hat must be a finite number"),
        ("gam", ["converged"], "x", "converged must be true or false"),
        ("gam", ["iterations_used"], 1e300, "iterations_used must be an integer"),
        ("gam", ["f_road", "effective_df"], -1, "effective_df must be a finite number"),
        ("gam", ["f_home", "knot_weights"], lambda w: [-1.0] * len(w), "knot_weights > 0"),
        ("loess", ["span"], True, "span must be a number"),
        ("kernel-iso", ["sigma"], True, "sigma must be a number"),
        ("kernel-aniso", ["movs", 0], True, "movs must hold numbers, got a boolean"),
        ("gam", ["f_road", "values", 0], True, "values must hold numbers, got a boolean"),
        ("loess", ["home_ranks", 1], False, "home_ranks must hold numbers, got a boolean"),
    ],
    ids=[
        "iso-nan-sigma", "iso-fractional-ranks", "aniso-zero-sigma", "iso-underflowing-sigma",
        "aniso-zero-rank",
        "aniso-nan-mov", "aniso-short-movs", "iso-empty-ranks", "quad-nan-beta0",
        "quad-inf-beta_hh", "gam-nan-value", "gam-nan-knot", "gam-nan-mu", "quad-beta_rh",
        "quad-inf-n_train", "quad-minus-inf-n_train", "gam-inf-n_train", "gam-minus-inf-n_train",
        "gam-inf-iterations", "gam-minus-inf-iterations", "quad-negative-n_train",
        "quad-negative-sigma_hat", "gam-string-converged", "gam-huge-iterations",
        "gam-negative-effective_df", "gam-negative-knot_weights", "loess-true-span",
        "iso-true-sigma", "aniso-true-mov", "gam-true-value", "loess-false-rank",
    ],
)
def test_predict_rejects_invalid_payload(tmp_path, capsys, model_docs, kind, path, value, message):
    assert _predict_file(tmp_path, _edited(model_docs[kind], path, value)) == 2
    captured = capsys.readouterr()
    # "invalid" for a value the checks reject, "malformed" for one Python cannot convert
    assert f"{kind!r} payload" in captured.err and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_predict_rejects_schema_version_not_integer_one(tmp_path, capsys, model_docs, version):
    doc = dict(model_docs["quadratic"], schema_version=version)
    assert _predict_file(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert f"has schema_version {version!r}, expected 1" in captured.err
    assert captured.out == ""


_DROP = object()
_MUTANTS = (_DROP, None, "x", [], {}, NAN, INF, -INF, -1, 0, 1e300, 1e-300, True, [[1]], [NAN])


def _key_paths(node, prefix=()):
    """The path of every key of every object in a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield prefix + (key,)
            yield from _key_paths(child, prefix + (key,))


def test_predict_survives_mutated_model_files(tmp_path, capsys, model_docs):
    # every key at every depth of the five files, dropped or set to each mutant
    cases = 0
    for kind, doc in sorted(model_docs.items()):
        for path in _key_paths(doc):
            for mutant in _MUTANTS:
                edited = copy.deepcopy(doc)
                parent = edited
                for key in path[:-1]:
                    parent = parent[key]
                if mutant is _DROP:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = copy.deepcopy(mutant)
                rc = _predict_file(tmp_path, edited)
                captured = capsys.readouterr()
                case = (kind, path, "drop" if mutant is _DROP else mutant, captured.err)
                assert rc in (0, 2) and "Traceback" not in captured.err, case
                if rc == 0:
                    margin = float(captured.out.split(" = ")[1].split()[0])
                    assert math.isfinite(margin), case
                cases += 1
    assert cases == 825


# cells a CSV may hold in place of a good one: out-of-range or huge integers,
# non-numbers, and bytes that are not UTF-8
_BAD_CELLS = (
    b"-1", b"0", b"-9007199254740993", b"9007199254740993", b"123456789012345678901234567890",
    b"1e300", b"nan", b"", b"\xff\xfe", b"\x80",
)


@st.composite
def _mutated_sample(draw):
    rows = [line.split(b",") for line in SAMPLE.read_bytes().split(b"\n")]
    for _ in range(draw(st.integers(1, 3))):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, len(cells) - 1)) if cells else 0
        op = draw(st.sampled_from(["drop", "duplicate", "set", "splice", "empty-header"]))
        if op == "empty-header":
            rows[0] = [b""]
        elif not cells:
            continue
        elif op == "drop":
            del cells[j]
        elif op == "duplicate":
            cells.insert(j, cells[j])
        elif op == "set":
            cells[j] = draw(st.sampled_from(_BAD_CELLS))
        else:
            k = draw(st.integers(0, len(cells[j])))
            not_utf8 = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
            cells[j] = cells[j][:k] + not_utf8 + cells[j][k:]
    text = b"\n".join(b",".join(cells) for cells in rows)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None)
@given(csv_bytes=_mutated_sample())
def test_ingest_survives_mutated_csv(fuzz_dir, csv_bytes):
    path = fuzz_dir / "games.csv"
    path.write_bytes(csv_bytes)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ranks above 351 warn
        rc = cli.main(["ingest", "--input", str(path)])
    assert rc in (0, 2) and "Traceback" not in err.getvalue(), err.getvalue()
    if rc == 0:
        for token in out.getvalue().split():
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), out.getvalue()


def test_kernel_file_predicts_like_the_fitted_smoother(games_csv, tmp_path, capsys, model_docs):
    # the smoother is rebuilt from the payload arrays alone
    data = parse_games(games_csv.read_text())
    for kind, spec in (
        ("kernel-iso", isotropic_smoother(data, 6.0)),
        ("kernel-aniso", anisotropic_smoother(data, 20.0, 5.0)),
    ):
        assert _predict_file(tmp_path, model_docs[kind], road="5", home="20") == 0
        assert f"= {predict_kernel(spec, 5.0, 20.0):.2f}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kind, path, value, road",
    [
        ("quadratic", [], None, "1e200"),  # beta_rr * road**2 overflows to inf
        ("gam", ["f_road", "knots"], lambda knots: [k * 1e300 for k in knots], "3"),
    ],
    ids=["quadratic-huge-rank", "gam-huge-knots"],
)
def test_predict_rejects_non_finite_margin(tmp_path, capsys, model_docs, kind, path, value, road):
    doc = _edited(model_docs[kind], path, value) if path else model_docs[kind]
    assert _predict_file(tmp_path, doc, road=road, home="1") == 2
    captured = capsys.readouterr()
    assert f"{kind} gives a non-finite margin" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["ingest", "predict"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe" + "date,home_team".encode("utf-16-le"))
    argv = (["ingest", "--input", str(path)] if command == "ingest" else
            ["predict", "--model-file", str(path), "--road-rank", "1", "--home-rank", "2"])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path} is not UTF-8 text" in err and "Traceback" not in err


def test_python_m_runs_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "rankmargin", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: rankmargin")


def test_tune_loess(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "tune", "--input", str(games_csv), "--model", "loess",
            "--span-grid", "0.4,0.8", "--folds", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "best span:" in capsys.readouterr().out
    lines = (tmp_path / "loess_cv.csv").read_text().splitlines()
    assert lines[0] == "span,rmse"
    assert len(lines) == 3


def test_tune_kernel_iso(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "tune", "--input", str(games_csv), "--model", "kernel-iso",
            "--sigma-grid", "4,8,16", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "best sigma:" in capsys.readouterr().out
    lines = (tmp_path / "kernel_cv.csv").read_text().splitlines()
    assert lines[0] == "mode,sigma,sigma_x,sigma_y,rmse"
    assert len(lines) == 4
    assert all(l.startswith("isotropic,") for l in lines[1:])


def test_tune_kernel_aniso(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "tune", "--input", str(games_csv), "--model", "kernel-aniso",
            "--sigma-x-grid", "15,30", "--sigma-y-grid", "4,8",
            "--folds", "5", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 0
    assert "best (sigma_x, sigma_y):" in capsys.readouterr().out
    lines = (tmp_path / "kernel_cv.csv").read_text().splitlines()
    assert len(lines) == 5
    assert all(l.startswith("anisotropic,") for l in lines[1:])


def test_report_rejects_bad_span(games_csv, tmp_path, capsys):
    rc = cli.main(
        [
            "report", "--input", str(games_csv), "--span-grid", "0",
            "--sigma-grid", "8", "--sigma-x-grid", "20", "--sigma-y-grid", "5",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "span" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--df", "inf"], "df per term must be in [2, "),
        (["--df", "1"], "df per term must be in [2, "),
        (["--sigma-grid", "1e-200,8"], "does not underflow"),
        (["--sigma-x-grid", "1e-200,30"], "does not underflow"),
        (["--sigma-y-grid", "8,nan"], "must be finite"),
        (["--sigma-grid", "0"], "must be finite"),
    ],
    ids=["inf-df", "small-df", "underflowing-sigma", "underflowing-sigma-x", "nan-sigma-y",
         "zero-sigma"],
)
def test_report_rejects_bad_smoothing_flags(
    games_csv, tmp_path, capsys, monkeypatch, flags, message
):
    def tuning(*args, **kwargs):
        raise AssertionError("tuning started before the flags were checked")

    monkeypatch.setattr(cli, "select_span_cv", tuning)
    rc = cli.main(
        [
            "report", "--input", str(games_csv), "--span-grid", "0.5",
            "--sigma-x-grid", "20", "--sigma-y-grid", "5", *flags, "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    # checked right after the split, before any tuning
    assert not (tmp_path / "loess_cv.csv").exists()


REPORT_FILES = (
    "report.json",
    "report.txt",
    "residuals_quadratic.csv",
    "gam_components.csv",
    "loess_cv.csv",
    "kernel_cv.csv",
)


def _run_report(input_csv, out_dir):
    return cli.main(
        [
            "report", "--input", str(input_csv),
            "--partitions", "2", "--folds", "5",
            "--span-grid", "0.4,0.8", "--sigma-grid", "5,10",
            "--sigma-x-grid", "15,30", "--sigma-y-grid", "4,8",
            "--out-dir", str(out_dir),
        ]
    )


def test_report_on_bundled_sample(tmp_path, capsys):
    assert SAMPLE.exists(), "bundled sample data should ship with the repo"
    rc = _run_report(SAMPLE, tmp_path)
    assert rc == 0
    for name in REPORT_FILES:
        assert (tmp_path / name).exists(), name
    out = capsys.readouterr().out
    assert "Mean, validation" in out

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["table"]["columns"][0] == "Pure error"
    assert len(doc["table"]["columns"]) == 6
    assert doc["tuning"]["span"] in (0.4, 0.8)

    text = (tmp_path / "report.txt").read_text()
    assert evaluate.report_text(doc) == text
    assert "Lack of fit, quadratic regression:" in text
    assert "F = " in text and ") df, p = " in text
    assert "Smoothing parameters (tuned on training 1):" in text

    resid = (tmp_path / "residuals_quadratic.csv").read_text().splitlines()
    assert resid[0] == "fitted,studentized_residual"
    comp = (tmp_path / "gam_components.csv").read_text().splitlines()
    assert comp[0] == "component,rank,estimate,lower95,upper95"
    assert any(l.startswith("road,") for l in comp[1:])
    assert any(l.startswith("home,") for l in comp[1:])


def test_report_deterministic(games_csv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_report(games_csv, a) == 0
    assert _run_report(games_csv, b) == 0
    capsys.readouterr()
    for name in REPORT_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_a_failed_report_writes_nothing(games_csv, tmp_path, capsys, monkeypatch):
    # every file is built before any is written, so an earlier report stays whole
    old, new = tmp_path / "old", tmp_path / "new"
    assert _run_report(games_csv, old) == 0
    first = {name: (old / name).read_bytes() for name in REPORT_FILES}
    monkeypatch.setattr(additive, "_MAX_ITERATIONS", 1)  # the GAM bands fail, after every fit
    for out_dir in (old, new):
        capsys.readouterr()
        assert _run_report(games_csv, out_dir) == 2
        assert "confidence bands require a converged fit" in capsys.readouterr().err
    assert sorted(os.listdir(old)) == sorted(REPORT_FILES)
    assert {name: (old / name).read_bytes() for name in REPORT_FILES} == first
    assert not new.exists()


def test_report_refuses_an_unconverged_gam_on_any_partition(games_csv, tmp_path, capsys,
                                                             monkeypatch):
    # partition 2's GAM feeds only the RMSE table, never the bands
    calls = []

    def second_unconverged(*args, **kwargs):
        fit = additive.fit_additive(*args, **kwargs)
        calls.append(fit)
        return dataclasses.replace(fit, converged=False) if len(calls) == 2 else fit

    monkeypatch.setattr(models, "fit_additive", second_unconverged)
    out_dir = tmp_path / "out"
    assert _run_report(games_csv, out_dir) == 2
    err = capsys.readouterr().err
    assert "GAM on training 2 did not converge" in err
    assert "confidence bands require a converged fit" in err
    assert len(calls) == 2 and calls[0].converged
    assert not out_dir.exists()


def test_report_without_replicated_pairs_has_a_lack_of_fit_error_row(tmp_path, capsys):
    games = tmp_path / "games.csv"  # 200 games at rank_max 351: no rank pair twice
    assert cli.main(["synth", "--n", "200", "--rank-max", "351", "--seed", "1",
                     "--out", str(games)]) == 0
    assert cli.main(["report", "--input", str(games), "--partitions", "1", "--folds", "5",
                     "--span-grid", "0.4,0.8", "--sigma-grid", "20,40",
                     "--sigma-x-grid", "40", "--sigma-y-grid", "20,40",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["lack_of_fit"]["rows"] == [
        {"dataset": "Training 1", "error": "no rank pair occurs more than once"}
    ]
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "  Training 1: no rank pair occurs more than once" in lines
    training_1 = next(line for line in lines if line.startswith("Training 1 "))
    assert training_1.split()[2] == "--"  # under pure error


def test_report_fits_each_kind_once_per_partition(games_csv, tmp_path, capsys, monkeypatch):
    # the lack-of-fit rows, the residuals and the GAM bands reuse the table's fits
    calls = {"fit_quadratic": 0, "fit_additive": 0}
    for module in (models, cli):
        for name in calls:
            def counted(*args, _fit=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fit(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    assert _run_report(games_csv, tmp_path) == 0
    capsys.readouterr()
    assert calls == {"fit_quadratic": 2, "fit_additive": 2}


def test_synth_deterministic(tmp_path):
    p1, p2, p3 = (tmp_path / f"s{i}.csv" for i in range(3))
    for path in (p1, p2):
        assert cli.main(["synth", "--n", "60", "--rank-max", "15", "--seed", "9", "--out", str(path)]) == 0
    assert cli.main(["synth", "--n", "60", "--rank-max", "15", "--seed", "10", "--out", str(p3)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()


@pytest.mark.parametrize("noise", ["nan", "1e300"])
def test_synth_rejects_bad_noise(tmp_path, capsys, noise):
    # 1e300 would write 300-digit scores, which no float margin holds exactly
    out = tmp_path / "s.csv"
    assert cli.main(["synth", "--n", "20", "--noise-sigma", noise, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--rank-max", "100000000000000000000"], "rank_max must be in [2, 2**53]"),
        (["--coefficients", "nan,0,0,0,0"], "coefficients must be finite, got b0 = nan"),
        (["--coefficients", "1,2,3,inf,0"], "coefficients must be finite, got b3 = inf"),
        # beyond the largest array numpy can make, so checked before generating
        (["--n", str(2**63)], f"n must be in [1, 10,000,000], got {2**63}"),
    ],
)
def test_synth_rejects_bad_flags(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    assert cli.main(["synth", "--n", "20", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


# Every command that reads --seed rejects a negative one with the same line,
# naming the seed given (report seeds partitions 2.. with seed + 1, ...), and
# writes nothing; leave-one-out takes no seed, but tune rejects it all the same.
@pytest.mark.parametrize(
    "command",
    [
        ["report", "--span-grid", "0.5", "--sigma-grid", "8", "--sigma-x-grid", "20",
         "--sigma-y-grid", "5"],
        ["report", "--split", "random"],
        ["tune", "--model", "loess"],
        ["tune", "--model", "kernel-iso"],
        ["tune", "--model", "kernel-aniso"],
        ["split", "--train-count", "180"],
        ["split", "--split", "random", "--train-count", "180"],
    ],
    ids=["report", "report-random", "tune-loess", "tune-iso", "tune-aniso", "split",
         "split-random"],
)
def test_negative_seed_exits_2(games_csv, tmp_path, command):
    for seed in (-1, -2, -3):
        out = tmp_path / str(-seed)
        argv = [*command, "--input", str(games_csv), f"--seed={seed}", "--out-dir", str(out)]
        rc, _, err = _run_quietly(argv)
        assert (rc, err) == (2, f"error: seed must be >= 0, got {seed}\n"), command
        assert not out.exists(), command


# The commands that read each flag. Each input rule is checked in one place,
# so every one of them rejects a bad value with the same line and writes nothing.
_RULE_READERS = {
    "--df": [["fit", "--model", "gam"],
             ["fit", "--model", "all", "--sigma", "6", "--sigma-x", "20", "--sigma-y", "5"],
             ["report"]],
    "--train-count": [["split"], ["split", "--split", "random", "--seed", "1"], ["report"]],
}


@pytest.mark.parametrize(
    "flag, value, message",
    [
        # every rank 1..25 of the season is in its first 180 games, on both axes
        ("--df", "1", "df per term must be in [2, 25] for 25 distinct ranks, got 1.0"),
        ("--train-count", "240",
         "train_count must be in [1, 239] for a dataset of 240 games, got 240"),
        ("--train-count", "0", "train_count must be in [1, 239] for a dataset of 240 games, got 0"),
    ],
)
def test_one_bad_value_one_message(games_csv, tmp_path, flag, value, message):
    for i, command in enumerate(_RULE_READERS[flag]):
        out = tmp_path / str(i)
        target = ["--out", str(out / "x")] if command[0] == "fit" else ["--out-dir", str(out)]
        rc, _, err = _run_quietly([*command, "--input", str(games_csv), f"{flag}={value}", *target])
        assert (rc, err) == (2, f"error: {message}\n"), command
        assert not out.exists(), command


# Valid command lines on a small season, as (fixed arguments, the numeric
# and grid flags with their valid values); the fuzzer sets one flag at a time.
_FLAG_FUZZ_COMMANDS = {
    "split": (["--input", "{games}", "--split", "random", "--out-dir", "{out}"],
              {"--train-count": "180", "--seed": "1"}),
    "fit": (["--input", "{games}", "--model", "all", "--out", "{out}"],
            {"--df": "4", "--span": "0.5", "--sigma": "6", "--sigma-x": "20", "--sigma-y": "5"}),
    "predict": (["--model-file", "{model}"], {"--road-rank": "3", "--home-rank": "7"}),
    "tune": (["--input", "{games}", "--model", "{tuned}", "--out-dir", "{out}"],
             {"--span-grid": "0.5,0.8", "--sigma-grid": "6", "--sigma-x-grid": "20",
              "--sigma-y-grid": "5", "--folds": "3", "--seed": "0"}),
    "report": (["--input", "{games}", "--out-dir", "{out}"],
               {"--train-count": "180", "--partitions": "1", "--seed": "0", "--folds": "3",
                "--df": "4", "--span-grid": "0.8", "--sigma-grid": "6", "--sigma-x-grid": "20",
                "--sigma-y-grid": "5"}),
    "synth": (["--out", "{out}/s.csv"],
              {"--n": "50", "--rank-max": "20", "--noise-sigma": "5", "--seed": "1",
               "--coefficients": "-5.8,-0.07,0.1,0,0"}),
}
_EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", str(2**63), "", ",", "x")
# A large valid count is slow, not wrong: 2**63 partitions would split the
# season 2**63 times. No edge value is a large valid `synth --n` (2**63 is
# past the cap), so only this pair is left out.
_SLOW = {("report", "--partitions", str(2**63))}
_NUMBER_TEXT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _fuzz_argv(command, paths, tuned="loess", model="loess", flag=None, value=None):
    """A `_FLAG_FUZZ_COMMANDS` line with `flag` set to `value`. Each flag is
    joined to its value by "=", so that argparse reads a value such as "-inf"
    or "-5.8,..." as a value, not as an option."""
    fixed, flags = _FLAG_FUZZ_COMMANDS[command]
    argv = [command, *fixed, *(f"{name}={value if name == flag else v}" for name, v in flags.items())]
    return [a.format(games=paths["games"], out=paths["out"], tuned=tuned,
                     model=paths["models"] / f"{model}.json") for a in argv]


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate-prediction fallbacks warn
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def flag_fuzz_paths(games_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("flag-fuzz")
    paths = {"games": games_csv, "out": root / "out", "models": root / "models"}
    assert _run_quietly(_fuzz_argv("fit", dict(paths, out=root / "models")))[0] == 0
    for command in _FLAG_FUZZ_COMMANDS:  # every unmutated line is valid
        for tuned in cli.TUNED:
            assert _run_quietly(_fuzz_argv(command, paths, tuned=tuned))[0] == 0, command
    return paths


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(_FLAG_FUZZ_COMMANDS)),
    data=st.data(),
    tuned=st.sampled_from(cli.TUNED),
    model=st.sampled_from(list(models.KINDS)),
)
def test_flags_survive_edge_values(flag_fuzz_paths, command, data, tuned, model):
    # ROADMAP direction 5: one numeric or grid flag at a time set to an edge value
    flag = data.draw(st.sampled_from(sorted(_FLAG_FUZZ_COMMANDS[command][1])))
    value = data.draw(st.sampled_from([v for v in _EDGE_VALUES if (command, flag, v) not in _SLOW]))
    argv = _fuzz_argv(command, flag_fuzz_paths, tuned, model, flag, value)
    rc, out, err = _run_quietly(argv)
    assert rc in (0, 2) and "Traceback" not in err, (argv, err)
    if rc == 0:
        for token in _NUMBER_TEXT.findall(out):
            assert math.isfinite(float(token)), (argv, out)


_BANDWIDTH = "grid entries must be finite and > 0"


@pytest.mark.parametrize(
    "model, flags, message",
    [
        ("loess", ["--sigma-grid", "nan"], _BANDWIDTH),
        ("kernel-iso", ["--sigma-x-grid", "0"], _BANDWIDTH),
        ("kernel-aniso", ["--sigma-grid", "1e-200"], _BANDWIDTH),
        ("kernel-iso", ["--span-grid", "nan"], "span must be in (0, 1], got nan"),
        ("kernel-aniso", ["--span-grid", "0"], "span must be in (0, 1], got 0.0"),
        ("kernel-iso", ["--span-grid", "0.5,5"], "span must be in (0, 1], got 5.0"),
        ("kernel-aniso", ["--span-grid", ","], "span grid is empty"),
    ],
    ids=["loess-flags0", "kernel-iso-flags1", "kernel-aniso-flags2",
         "span-nan", "span-zero", "span-five", "span-empty"],
)
def test_tune_checks_every_bandwidth_grid_given(games_csv, tmp_path, capsys, monkeypatch,
                                                model, flags, message):
    # a grid the model does not search is still checked, before any tuning
    def tuning(*args, **kwargs):
        raise AssertionError("tuning started before the flags were checked")

    for name in ("select_span_cv", "select_sigma_loo", "select_aniso_cv"):
        monkeypatch.setattr(cli, name, tuning)
    argv = ["tune", "--input", str(games_csv), "--model", model, *flags, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_report_sigma_flag_is_ambiguous(games_csv, tmp_path, capsys):
    # report has no pin flags: --span is a prefix of --span-grid alone, while
    # --sigma is a prefix of three grid flags
    argv = ["report", "--input", str(games_csv), "--sigma", "8", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "ambiguous option: --sigma could match" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert cli.main(["bogus-command"]) == 2
    capsys.readouterr()


def _run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_main_builds_the_parser_once(games_csv, tmp_path, capsys, monkeypatch):
    model_file = tmp_path / "quadratic.json"
    argvs = [
        ["ingest", "--input", str(games_csv)],
        ["split", "--input", str(games_csv), "--train-count", "180", "--out-dir", str(tmp_path)],
        ["fit", "--input", str(games_csv), "--model", "quadratic", "--out", str(model_file)],
        ["predict", "--model-file", str(model_file), "--road-rank", "5", "--home-rank", "20"],
        ["tune", "--input", str(games_csv), "--model", "kernel-iso", "--sigma-grid", "6",
         "--out-dir", str(tmp_path)],
        ["synth", "--n", "30", "--rank-max", "10", "--out", str(tmp_path / "g.csv")],
        ["bogus-command"],
        ["--help"],
    ]
    cli._build_parser.cache_clear()
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [_run(argv, capsys)[0] for argv in argvs]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0]
    # the first call builds the top-level parser and its seven subcommands
    assert constructed[0] == "rankmargin" and len(constructed) == 8
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


def test_reused_parser_gives_the_output_of_a_fresh_one(tmp_path, capsys):
    model_file = tmp_path / "quad.json"
    payload = {"beta0": -5.8, "beta_r": -0.074, "beta_h": 0.10, "beta_rr": 4.7e-5,
               "beta_hh": -1.2e-4, "sigma_hat": 11.5, "n_train": 4518}
    model_file.write_text(json.dumps({"schema_version": 1, "model": "quadratic",
                                      "payload": payload}))
    good = ["predict", "--model-file", str(model_file), "--road-rank", "100", "--home-rank", "100"]
    argvs = [
        good,
        [*good, "--no-such-flag"],
        ["predict", "--help"],
        ["predict", "--model-file", str(tmp_path / "absent.json"), "--road-rank", "1",
         "--home-rank", "2"],
        good,
    ]
    cli._build_parser.cache_clear()
    reused = [_run(argv, capsys) for argv in argvs]  # one parser for the whole sequence
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [0, 2, 0, 2, 0]
    assert "= -3.93" in reused[0][1] and reused[4] == reused[0]
    assert reused[1][2].startswith("usage: rankmargin") and "--no-such-flag" in reused[1][2]
    assert reused[2][1].startswith("usage: rankmargin predict") and reused[2][2] == ""
    assert reused[3][2].startswith("error: model file not found")


def test_console_script_installed(tmp_path):
    exe = shutil.which("rankmargin")
    assert exe is not None, "console script should be on PATH after installation"
    out_csv = tmp_path / "g.csv"
    proc = subprocess.run(
        [exe, "synth", "--n", "30", "--rank-max", "10", "--seed", "3", "--out", str(out_csv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out_csv.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "rankmargin.cli", "ingest", "--input", str(out_csv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "games: 30" in proc.stdout
