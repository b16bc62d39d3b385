"""tools/bench_pairs.py's summary, result checks and merge, on canned JSON
lines and documents; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(correct=True, failed=0, **values):
    metrics = {name: {"value": v, "unit": "ms"} for name, v in values.items()}
    return json.dumps({"correct": correct, "attempted": 9, "failed": failed, "metrics": metrics})


def test_summary_takes_linear_quartiles_of_each_runs_last_line():
    runs = [
        {"pair": i, "order": i % 2, "json_lines": [{"setup_s": 9.0}, json.loads(_result(t=t))]}
        for i, t in enumerate([3.0, 1.0, 4.0, 2.0])
    ]
    assert bench_pairs.summarize(runs) == {
        "t": {"unit": "ms", "n": 4, "median": 2.5, "q1": 1.75, "q3": 3.25}
    }


def test_summary_reproduces_the_recorded_bench_files():
    for side in ("parent", "change"):
        doc = json.loads((ROOT / f"BENCH_pr19_{side}.json").read_text())
        for workload in doc["workloads"]:
            got = bench_pairs.summarize(workload["runs"])
            assert got.keys() == workload["summary"].keys()
            for name, want in workload["summary"].items():
                assert got[name]["n"] == want["n"] and got[name]["unit"] == want["unit"]
                for key in ("median", "q1", "q3"):
                    assert got[name][key] == pytest.approx(want[key], rel=1e-12, abs=0.0)


def test_json_lines_keeps_every_object_and_ends_on_the_result():
    stdout = "\n".join(['{"setup_s": 2.5}', "not json", "[1, 2]", _result(t=1.0)]) + "\n"
    lines = bench_pairs.json_lines(stdout)
    assert lines == [{"setup_s": 2.5}, json.loads(_result(t=1.0))]


@pytest.mark.parametrize(
    "stdout, message",
    [
        ("", "not a JSON result"),
        (_result(t=1.0) + "\nTraceback (most recent call last):", "not a JSON result"),
        ('{"setup_s": 2.5}', "not a JSON result"),
        (_result(correct=False, t=1.0), "correct=False, failed=0"),
        (_result(failed=2, t=1.0), "correct=True, failed=2"),
    ],
    ids=["empty", "trailing-text", "no-metrics", "incorrect", "failed-operations"],
)
def test_json_lines_rejects_a_run_without_a_passing_result(stdout, message):
    with pytest.raises(bench_pairs.RunError, match=message):
        bench_pairs.json_lines(stdout)


def _doc(workload, values_by_metric):
    """A BENCH document of one workload whose run i holds the i-th value of
    each metric."""
    n = len(next(iter(values_by_metric.values())))
    runs = [
        {"pair": i, "order": i % 2, "json_lines": [{
            "correct": True, "failed": 0,
            "metrics": {m: {"value": v[i], "unit": "u"} for m, v in values_by_metric.items()},
        }]}
        for i in range(n)
    ]
    return {"workloads": [{"workload": workload, "runs": runs, "summary": bench_pairs.summarize(runs)}]}


def test_compare_reports_medians_pairs_and_bounds_in_each_direction():
    benchmark = {"end_to_end": [
        {"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}
    parent = _doc("w", {"t_ms": [10.0, 12.0, 11.0, 13.0], "rate": [100.0, 80.0, 90.0, 90.0]})
    change = _doc("w", {"t_ms": [9.0, 12.0, 14.0, 20.0], "rate": [50.0, 81.0, 85.0, 90.0]})
    assert bench_pairs.compare(parent, change, benchmark) == [
        "w t_ms (lower is better): parent 11.5 [10.75, 12.25] -> change 13 [11.25, 15.5] ms, "
        "+13.0%; better in 1/4 pairs; inside bound 25%",
        "w rate (higher is better): parent 90 [87.5, 92.5] -> change 83 [73.25, 86.25] 1/s, "
        "-7.8%; better in 1/4 pairs; inside bound 10%",
    ]
    worse = _doc("w", {"t_ms": [20.0, 20.0, 20.0, 20.0], "rate": [70.0, 70.0, 70.0, 70.0]})
    lines = bench_pairs.compare(parent, worse, benchmark)
    assert [line.rsplit("; ", 1)[1] for line in lines] == ["OUTSIDE bound 25%", "OUTSIDE bound 10%"]
    assert all("better in 0/4 pairs" in line for line in lines)


def test_compare_reproduces_the_recorded_pr23_medians():
    parent, change = (json.loads((ROOT / f"BENCH_pr23_{side}.json").read_text())
                      for side in ("parent", "change"))
    lines = bench_pairs.compare(parent, change)
    assert len(lines) == 12
    (line,) = [line for line in lines if line.startswith("predict-cli call_p50_ms ")]
    assert "parent 10.13 [9.923, 10.78] -> change 9.41 [9.313, 9.957] ms, -7.1%" in line
    assert line.endswith("better in 2/3 pairs; inside bound 25%")


def _sides(commits, *workloads):
    """{side: document} with `commits` and one run per workload, its value a
    label that tells the recordings apart."""
    return {
        side: {"side": side, "commit": commit, "python": "3.x",
               "workloads": [_doc(w, {"t_ms": [value]})["workloads"][0] for w, value in workloads]}
        for side, commit in zip(bench_pairs.SIDES, commits)
    }


def _workloads(doc):
    return [(w["workload"], w["summary"]["t_ms"]["median"]) for w in doc["workloads"]]


def test_merge_adds_and_replaces_workloads_and_keeps_the_rest():
    old = _sides(("a1", "b1"), ("predict-cli", 1.0), ("report-r60", 2.0))
    assert bench_pairs.merge(None, old) is old
    new = _sides(("a1", "b1"), ("report-r60", 3.0), ("report-r351", 4.0))
    new["parent"]["python"] = "3.y"
    merged = bench_pairs.merge(old, new)
    for side in bench_pairs.SIDES:
        assert _workloads(merged[side]) == [
            ("predict-cli", 1.0), ("report-r60", 3.0), ("report-r351", 4.0)
        ]
        assert merged[side]["commit"] == new[side]["commit"]
    assert merged["parent"]["python"] == "3.y"
    benchmark = {"end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}
    lines = bench_pairs.compare(merged["parent"], merged["change"], benchmark)
    assert [line.split()[0] for line in lines] == ["predict-cli", "report-r60", "report-r351"]
    assert _workloads(old["parent"]) == [("predict-cli", 1.0), ("report-r60", 2.0)]


@pytest.mark.parametrize("commits", [("a2", "b1"), ("a1", "b2")], ids=["parent", "change"])
def test_merge_refuses_files_of_another_commit(commits):
    old = _sides(("a1", "b1"), ("predict-cli", 1.0))
    with pytest.raises(bench_pairs.RunError, match="is of commit [ab]1, this run of [ab]2"):
        bench_pairs.merge(old, _sides(commits, ("report-r60", 2.0)))
