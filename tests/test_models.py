"""Benchmark model registry: names, order, working fit callables and model files."""

import json
import warnings

import numpy as np
import pytest

from rankmargin import cli
from rankmargin.models import KINDS
from rankmargin.synth import generate_synthetic


def test_column_names_and_order():
    assert tuple(kind.column for kind in KINDS.values()) == (
        "Quadratic regression",
        "Gaussian GAM",
        "Local linear (LOESS)",
        "Isotropic kernel",
        "Anisotropic kernel",
    )


def test_kinds_fit_and_predict():
    params = dict(span=0.4, sigma=10.0, sigma_x=30.0, sigma_y=8.0, df=4.0)
    assert list(KINDS) == ["quadratic", "gam", "loess", "kernel-iso", "kernel-aniso"]
    data = generate_synthetic(240, seed=80, rank_max=40)
    queries_r = np.array([1.0, 20.0, 39.0])
    queries_h = np.array([39.0, 20.0, 1.0])
    for kind in KINDS.values():
        fitted = kind.fit(data, params)
        preds = np.asarray(kind.predict(fitted, queries_r, queries_h), dtype=float)
        assert preds.shape == (3,)
        assert np.isfinite(preds).all()


PARAMS = {"df": 4.0, "span": 0.4, "sigma": 6.0, "sigma_x": 20.0, "sigma_y": 5.0}
# integer, fractional and far (beyond every training rank) queries
ROAD = np.array([1.0, 5.0, 25.0, 12.0, 2.5, 17.25, 60.0, 400.0])
HOME = np.array([1.0, 20.0, 3.0, 12.0, 7.5, 1.5, 2.0, 350.0])


@pytest.mark.parametrize("kind", list(KINDS))
def test_model_file_round_trip(kind, tmp_path, capsys):
    # fit -> payload -> JSON -> payload -> fitted predicts the same bits
    row = KINDS[kind]
    data = generate_synthetic(240, seed=81, rank_max=25)
    fitted = row.fit(data, {name: PARAMS[name] for name in row.needs})
    payload = json.loads(json.dumps(row.to_payload(fitted)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = row.predict(fitted, ROAD, HOME)
        assert np.array_equal(row.predict(row.from_payload(payload), ROAD, HOME), want)
        model_file = tmp_path / f"{kind}.json"
        model_file.write_text(json.dumps({"schema_version": 1, "model": kind, "payload": payload}))
        for r, h, est in zip(ROAD, HOME, want):
            argv = ["predict", "--model-file", str(model_file), f"--road-rank={r}", f"--home-rank={h}"]
            assert cli.main(argv) == 0
            assert f"{kind}: predicted margin (road {r} at home {h}) = {est:.2f}\n" in capsys.readouterr().out
