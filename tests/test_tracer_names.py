"""perfbench's tracer still finds and reads the package's calls.

`perfbench/spans.py` replaces module attributes of `rankmargin.cli` and
`rankmargin.models` by name, and its counters read the grids and folds from
each call's arguments. A name deleted from either module, or a changed call
shape, would only show up when a traced benchmark runs. spans.py imports
only the standard library, so it is loaded here by path.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from rankmargin import cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, attr", sorted(_spans().BOUNDARIES))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"rankmargin.{module}"), attr))


def test_traced_report_reads_the_tuning_calls(tmp_path):
    games = tmp_path / "games.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "200", "--rank-max", "20", "--seed", "2",
                         "--out", str(games)]) == 0
    tracer = _spans().Tracer()
    tracer.install({"cli": cli, "models": importlib.import_module("rankmargin.models")})
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["report", "--input", str(games), "--partitions", "1", "--folds", "3",
                           "--span-grid", "0.5,0.8", "--sigma-grid", "6,12",
                           "--sigma-x-grid", "20", "--sigma-y-grid", "5,8",
                           "--out-dir", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    assert {"loess.select_span_cv", "kernel.select_sigma_loo", "kernel.select_aniso_cv"} <= names
    assert tracer.counts[0]["loess.queries"] > 0
    assert tracer.counts[0]["kernel.pair_evals"] > 0
