"""tools/bench_pairs.py's summary and result checks, on canned JSON lines; no
benchmark runs."""

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
