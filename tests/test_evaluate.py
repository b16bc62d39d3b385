"""RMSE, pure error, lack of fit, cross-validation, and the benchmark table."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rankmargin.data import fold_splits, split
from rankmargin.errors import DataError, ParameterError, RankMarginError
from rankmargin.evaluate import (
    PURE_ERROR_COLUMN,
    benchmark,
    lack_of_fit,
    pure_error,
    report_text,
    rmse,
    table_text,
)
from rankmargin.kernel import select_sigma_loo
from rankmargin.models import KINDS
from rankmargin.synth import generate_synthetic
from util import make_dataset

import oracles


class TestRmse:
    def test_exact_match_is_zero(self):
        assert rmse([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert rmse([5.0, 3.0], [0.0, 3.0]) == 3.5355339059327378

    def test_translation_invariance(self):
        p = np.array([1.0, 4.0, -2.0])
        a = np.array([0.5, 5.0, -1.0])
        assert rmse(p + 100.0, a + 100.0) == pytest.approx(rmse(p, a), abs=1e-12)

    def test_errors(self):
        with pytest.raises(ParameterError):
            rmse([1.0, 2.0], [1.0])
        with pytest.raises(ParameterError):
            rmse([], [])
        with pytest.raises(ParameterError):
            rmse(np.zeros((2, 2)), np.zeros((2, 2)))


class TestPureError:
    def test_hand_example(self):
        data = make_dataset([10, 10, 3], [20, 20, 4], [5.0, 9.0, 0.0])
        pe = pure_error(data)
        assert pe.ss_pe == pytest.approx(8.0, abs=1e-12)
        assert pe.df_pe == 1
        assert pe.rmse_pe == pytest.approx(2.8284271247461903, abs=1e-12)
        assert pe.n_groups == 2

    def test_identical_replicates_have_zero_pure_error(self):
        data = make_dataset([4, 4, 4], [9, 9, 9], [6.0, 6.0, 6.0])
        pe = pure_error(data)
        assert pe.ss_pe == 0.0
        assert pe.rmse_pe == 0.0
        assert pe.df_pe == 2

    def test_no_replicates_raises(self):
        data = make_dataset([1, 2, 3], [4, 5, 6], [0.0, 1.0, 2.0])
        with pytest.raises(DataError, match="no rank pair occurs more than once"):
            pure_error(data)


class TestLackOfFit:
    def _anova_data(self):
        # three replicated rank pairs, two games each
        return make_dataset(
            [10, 10, 3, 3, 8, 8],
            [20, 20, 4, 4, 2, 2],
            [5.0, 9.0, 0.0, 2.0, 4.0, 4.0],
        )

    def test_group_mean_predictor_shows_no_lack_of_fit(self):
        data = self._anova_data()
        pe = pure_error(data)
        result = lack_of_fit(pe.ss_pe, 2, data)
        assert result.f_stat == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_hand_frozen_line_fit(self):
        # SSE of the least-squares line through (road rank, margin); the
        # fraction was worked out by hand from the normal equations
        data = self._anova_data()
        result = lack_of_fit(2041.0 / 169.0, 2, data)
        assert result.df_lof == 1
        assert result.df_pe == 3
        assert result.ss_pe == pytest.approx(10.0, abs=1e-12)
        assert result.ss_lof == pytest.approx(351.0 / 169.0, abs=1e-10)
        assert result.f_stat == pytest.approx(1053.0 / 1690.0, abs=1e-10)
        assert result.p_value == pytest.approx(0.487540618106059, abs=1e-10)

    def test_too_few_groups_for_parameters(self):
        data = self._anova_data()
        with pytest.raises(DataError):
            lack_of_fit(12.0, 3, data)

    def test_impossible_sse_raises(self):
        data = self._anova_data()
        with pytest.raises(DataError, match="is below pure-error SS"):
            lack_of_fit(5.0, 2, data)

    def test_p_value_decreases_as_misfit_grows(self):
        data = self._anova_data()
        mild = lack_of_fit(12.0, 2, data)
        severe = lack_of_fit(60.0, 2, data)
        assert severe.f_stat > mild.f_stat
        assert severe.p_value < mild.p_value
        for r in (mild, severe):
            assert 0.0 <= r.p_value <= 1.0


class TestFoldAssignments:
    def test_partition_properties(self):
        folds = [held for _, held in fold_splits(23, 5, seed=7)]
        assert len(folds) == 5
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        combined = np.concatenate(folds)
        assert sorted(combined) == list(range(23))

    def test_deterministic_in_seed(self):
        a = fold_splits(40, 4, seed=3)
        b = fold_splits(40, 4, seed=3)
        for (ta, fa), (tb, fb) in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(ta, tb)
        c = fold_splits(40, 4, seed=4)
        assert any(not np.array_equal(fa, fc) for (_, fa), (_, fc) in zip(a, c))

    def test_k_equals_n_gives_singletons(self):
        folds = fold_splits(6, 6, seed=0)
        assert all(len(held) == 1 for _, held in folds)

    def test_errors(self):
        with pytest.raises(ParameterError):
            fold_splits(10, 1, seed=0)
        with pytest.raises(ParameterError):
            fold_splits(10, 11, seed=0)


def _broken_fit(train, params):
    raise DataError("boom")


# rows shaped like models.KINDS rows: a model that predicts 0, one that cannot fit
_ZERO = KINDS["quadratic"]._replace(
    name="zero", column="Zero", fit=lambda train, params: None,
    predict=lambda fitted, r, h: np.zeros(len(np.atleast_1d(r))),
)
_BROKEN = KINDS["quadratic"]._replace(name="broken", column="Broken", fit=_broken_fit)
_QUADRATIC = KINDS["quadratic"]


class TestKfoldCv:
    # the k-fold oracle, which with k = n checks select_sigma_loo
    def test_zero_noise_quadratic_scores_zero(self):
        rng = np.random.default_rng(62)
        road = rng.integers(1, 100, 200)
        home = rng.integers(1, 100, 200)
        movs = (
            -5.8 - 0.074 * road + 0.10 * home + 4.7e-5 * road**2 - 1.2e-4 * home**2
        )
        data = make_dataset(road, home, movs)
        assert oracles.kfold_cv_reference(data, 5, 0, _QUADRATIC, {}) <= 1e-6

    def test_deterministic(self):
        data = generate_synthetic(150, seed=63, rank_max=40)
        model = (KINDS["kernel-iso"], {"sigma": 12.0})
        cv = oracles.kfold_cv_reference
        assert cv(data, 5, 1, *model) == cv(data, 5, 1, *model)
        assert cv(data, 5, 2, *model) != cv(data, 5, 1, *model)

    def test_k_equals_n_matches_leave_one_out(self):
        data = generate_synthetic(60, seed=64, rank_max=25)
        sigma = 9.0
        via_folds = oracles.kfold_cv_reference(
            data, len(data), 0, KINDS["kernel-iso"], {"sigma": sigma}
        )
        _, curve = select_sigma_loo(data, [sigma])
        assert via_folds == pytest.approx(curve[0][1], abs=1e-10)


class TestBenchmark:
    def test_single_pair_means_equal_rows(self):
        data = generate_synthetic(400, seed=66, rank_max=30)
        train, valid = split(data, 300)
        report, _ = benchmark([(train, valid)], [_QUADRATIC], {})
        assert len(report["training_rows"]) == 1
        assert len(report["validation_rows"]) == 1
        assert report["training_mean"]["values"] == report["training_rows"][0]["values"]
        assert report["validation_mean"]["values"] == report["validation_rows"][0]["values"]
        assert report["training_rows"][0]["label"] == "Training 1"
        assert report["validation_rows"][0]["label"] == "Validation 1"

    def test_means_are_arithmetic(self):
        pairs = []
        for seed in (67, 68):
            data = generate_synthetic(300, seed=seed, rank_max=25)
            pairs.append(split(data, 200))
        report, _ = benchmark(pairs, [_QUADRATIC, _ZERO], {})
        for rows, mean_row in (
            (report["training_rows"], report["training_mean"]),
            (report["validation_rows"], report["validation_mean"]),
        ):
            for c in range(len(report["columns"])):
                vals = [r["values"][c] for r in rows]
                assert mean_row["values"][c] == pytest.approx(
                    sum(vals) / len(vals), rel=1e-12
                )

    def test_column_order(self):
        data = generate_synthetic(500, seed=69, rank_max=40)
        train, valid = split(data, 350)
        params = dict(span=0.4, sigma=12.0, sigma_x=40.0, sigma_y=10.0, df=4.0)
        report, _ = benchmark([(train, valid)], KINDS.values(), params)
        assert report["columns"] == [PURE_ERROR_COLUMN, *(kind.column for kind in KINDS.values())]
        assert PURE_ERROR_COLUMN == "Pure error"

    def test_unreplicated_half_renders_dashes(self):
        train = make_dataset([5, 5, 6, 7], [5, 5, 8, 2], [1.0, 3.0, 0.0, 2.0])
        valid = make_dataset([1, 2, 3], [9, 8, 7], [0.0, 1.0, -1.0])
        report, _ = benchmark([(train, valid)], [_ZERO], {})
        assert report["validation_rows"][0]["values"][0] is None
        text = table_text(report)
        assert "--" in text
        assert report["training_rows"][0]["values"][0] is not None

    def test_round_trips(self):
        data = generate_synthetic(200, seed=70, rank_max=20)
        train, valid = split(data, 150)
        report, _ = benchmark([(train, valid)], [_QUADRATIC, _ZERO], {})
        assert json.loads(json.dumps(report)) == report  # the table is the JSON report writes

    def test_fit_failure_names_model_and_dataset(self):
        data = generate_synthetic(100, seed=71, rank_max=15)
        train, valid = split(data, 80)

        with pytest.raises(RankMarginError, match=r"'Broken'.*training 1: boom"):
            benchmark([(train, valid)], [_QUADRATIC, _BROKEN], {})
        # any other exception is a bug, and propagates as it was raised
        with pytest.raises(ZeroDivisionError):
            benchmark([(train, valid)], [_BROKEN._replace(fit=lambda train, params: 1 / 0)], {})

    def test_validation_errors(self):
        data = generate_synthetic(100, seed=72, rank_max=15)
        pair = split(data, 80)
        with pytest.raises(ParameterError):
            benchmark([], [_QUADRATIC], {})
        with pytest.raises(ParameterError):
            benchmark([pair], [], {})

    def test_one_predictor_call_per_partition(self):
        pairs = [
            split(generate_synthetic(400, seed=seed, rank_max=30), 300)
            for seed in (73, 74)
        ]
        calls = []

        def recording(kind):
            def predict(fitted, r, h):
                calls.append((kind.name, fitted, np.array(r), np.array(h)))
                return kind.predict(fitted, r, h)

            return kind._replace(predict=predict)

        params = dict(span=0.4, sigma=3.0, sigma_x=8.0, sigma_y=4.0, df=4.0)
        report, fits = benchmark(pairs, [recording(k) for k in KINDS.values()], params)
        assert [name for name, *_ in calls] == list(KINDS) * len(pairs)
        assert [list(f) for f in fits] == [list(KINDS)] * len(pairs)
        for i, (train, valid) in enumerate(pairs):
            road = np.concatenate([train.road_ranks, valid.road_ranks])
            home = np.concatenate([train.home_ranks, valid.home_ranks])
            halves = ((report["training_rows"][i], train), (report["validation_rows"][i], valid))
            for c, kind in enumerate(KINDS.values()):
                name, fitted, r, h = calls[i * len(KINDS) + c]
                assert fitted is fits[i][name]  # the fits returned are those scored
                np.testing.assert_array_equal(r, road)
                np.testing.assert_array_equal(h, home)
                # the RMSEs of one call equal those of a separate call per half
                for row, half in halves:
                    alone = kind.predict(fitted, half.road_ranks, half.home_ranks)
                    assert row["values"][c + 1] == rmse(alone, half.movs)

    def test_rank_data_scores_near_noise_level(self):
        data = generate_synthetic(3000, seed=60)
        train, valid = split(data, 2250)
        params = dict(span=0.3, sigma=15.0, sigma_x=40.0, sigma_y=10.0, df=4.0)
        report, _ = benchmark([(train, valid)], KINDS.values(), params)
        for row in (report["training_rows"][0], report["validation_rows"][0]):
            for v in row["values"][1:]:
                assert 10.8 <= v <= 11.8
        # every model should sit near the generator noise, and none can beat
        # the training pure error by a wide margin
        assert report["training_rows"][0]["values"][0] is not None


def test_text_table_layout():
    data = generate_synthetic(300, seed=73, rank_max=25)
    train, valid = split(data, 220)
    report, _ = benchmark([(train, valid)], [_QUADRATIC], {})
    text = table_text(report)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0].split()[0] == "Dataset"
    assert lines[1].startswith("Training 1")
    assert lines[2].startswith("Mean, training")
    assert lines[3].startswith("Validation 1")
    assert lines[4].startswith("Mean, validation")


@pytest.mark.parametrize("report_dir", ["report", "season/report"])
def test_report_text_renders_the_golden_report_json(report_dir):
    golden = Path(__file__).resolve().parent / "golden" / report_dir
    doc = json.loads((golden / "report.json").read_text())
    assert report_text(doc) == (golden / "report.txt").read_text()
