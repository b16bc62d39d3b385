"""Golden outputs: the CLI's files and printouts on two seasons.

`tests/golden/` holds the outputs of the commands in COMMANDS on
`sample_data/games_sample.csv` and on a seeded `synth` season at rank_max
100, whose GAM band grid holds ranks absent from training. The test reruns every command in a
subprocess with one BLAS thread and compares each output with its golden
copy: text exactly, numbers within 1e-12 relative. Outputs that only copy
input values (the split CSVs and the lazy smoothers' model files) are
checked by their SHA-256 in `golden/manifest.json`.

To rewrite the golden files after a deliberate change of output:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SAMPLE = "sample_data/games_sample.csv"

# (name, argv, file whose contents the command's stdout is, or None); every
# argv runs from the repository root with `{out}` the output directory
COMMANDS = [
    ("report", ["report", "--input", SAMPLE, "--partitions", "2", "--folds", "5",
                "--span-grid", "0.3,0.5", "--sigma-grid", "5,10,20",
                "--sigma-x-grid", "15,30", "--sigma-y-grid", "4,8",
                "--out-dir", "{out}/report"], None),
    ("fit", ["fit", "--input", SAMPLE, "--model", "all", "--span", "0.5", "--sigma", "12",
             "--sigma-x", "30", "--sigma-y", "8", "--out", "{out}/fit"], None),
    ("ingest", ["ingest", "--input", SAMPLE], "ingest.txt"),
    ("split", ["split", "--input", SAMPLE, "--split", "random", "--seed", "3",
               "--train-count", "600", "--out-dir", "{out}/split"], None),
    ("synth", ["synth", "--n", "400", "--rank-max", "100", "--seed", "5",
               "--out", "{out}/season/games.csv"], None),
    ("season report", ["report", "--input", "{out}/season/games.csv", "--partitions", "3",
                       "--folds", "5", "--span-grid", "0.3,0.5", "--sigma-grid", "12,19,30",
                       "--sigma-x-grid", "30,60", "--sigma-y-grid", "8,16",
                       "--out-dir", "{out}/season/report"], None),
]
HASHED = ["fit/loess.json", "fit/kernel-iso.json", "fit/kernel-aniso.json",
          "split/train.csv", "split/valid.csv", "season/games.csv"]
RTOL = 1e-12

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def run_commands(out: Path) -> None:
    """Run COMMANDS into `out`, one BLAS thread, the package under src/."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, argv, stdout_file in COMMANDS:
        argv = [a.replace("{out}", str(out)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "rankmargin", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{proc.stderr}"
        if stdout_file:
            (out / stdout_file).write_text(proc.stdout)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compared_files(root: Path) -> list[str]:
    names = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    return [n for n in names if n not in HASHED and n != "manifest.json"]


def _same_number(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y or abs(x - y) <= RTOL * max(abs(x), abs(y))


def mismatch(expected: str, actual: str) -> str | None:
    """First difference between two texts, reading numbers as numbers."""
    e_text, a_text = _NUMBER.split(expected), _NUMBER.split(actual)
    if e_text != a_text:
        for i, (e, a) in enumerate(zip(e_text, a_text)):
            if e != a:
                return f"text piece {i}: expected {e!r}, got {a!r}"
        return f"{len(e_text)} text pieces expected, got {len(a_text)}"
    for e, a in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        if not _same_number(e, a):
            return f"expected {e}, got {a}"
    return None


def test_outputs_match_golden(tmp_path):
    run_commands(tmp_path)
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    assert manifest["commands"] == [argv for _, argv, _ in COMMANDS]
    assert manifest["sha256"] == {name: _sha256(tmp_path / name) for name in HASHED}
    names = _compared_files(GOLDEN)
    assert _compared_files(tmp_path) == names
    for name in names:
        diff = mismatch((GOLDEN / name).read_text(), (tmp_path / name).read_text())
        assert diff is None, f"{name}: {diff}"


def test_mismatch_reads_numbers():
    assert mismatch("a 1.0 b", "a 1.0000000000000002 b") is None
    assert mismatch("a 1.0 b", "a 1.000001 b") == "expected 1.0, got 1.000001"
    assert mismatch("a 1 b", "a 1 c") is not None
    assert mismatch("x nan", "x nan") is None


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_commands(out)
        for name in _compared_files(out):
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / name).write_text((out / name).read_text())
        doc = {"commands": [argv for _, argv, _ in COMMANDS],
               "sha256": {name: _sha256(out / name) for name in HASHED}}
        (GOLDEN / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")
