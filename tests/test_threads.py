"""Seeded outputs do not depend on the BLAS thread count.

Each command runs in a subprocess at OPENBLAS_NUM_THREADS=1 and at =2, on
one synthetic season of rank_max 351, and the two runs must write the same
bytes. numpy's OpenBLAS defaults to one thread per CPU, so without this a
report's numbers could change with the machine's core count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every argv runs with `{input}` the season and `{out}` an empty directory
COMMANDS = {
    "fit-gam": ["fit", "--input", "{input}", "--model", "gam", "--out", "{out}/gam.json"],
    "report": ["report", "--input", "{input}", "--partitions", "1", "--folds", "2",
               "--span-grid", "0.5", "--sigma-grid", "12", "--sigma-x-grid", "30",
               "--sigma-y-grid", "8",
               "--out-dir", "{out}"],
}


def _run(argv, threads: int) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rankmargin", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"{argv[0]} exited {proc.returncode}:\n{proc.stderr}"


@pytest.fixture(scope="module")
def season(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("season") / "games.csv"
    _run(["synth", "--n", "3000", "--rank-max", "351", "--seed", "5", "--out", str(path)], 1)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_do_not_depend_on_blas_threads(name, season, tmp_path):
    outputs = {}
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        _run([a.replace("{input}", str(season)).replace("{out}", str(out))
              for a in COMMANDS[name]], threads)
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs[1]) == sorted(outputs[2])
    for file, content in outputs[1].items():
        assert content == outputs[2][file], f"{file} differs between 1 and 2 BLAS threads"
