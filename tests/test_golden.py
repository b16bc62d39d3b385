"""Golden outputs: the CLI's files and printouts on two seasons.

`tests/golden/` holds the outputs of the commands in COMMANDS on
`sample_data/games_sample.csv` and on a seeded `synth` season at rank_max
100, whose GAM band grid holds ranks absent from training. The test reruns every command in a
subprocess with one BLAS thread and compares each output with its golden
copy: text exactly, numbers within 1e-12 relative. Outputs that only copy
input values (the split CSVs and the lazy smoothers' model files) are
checked by their SHA-256 in `golden/manifest.json`.

To rewrite the golden files of some commands after a deliberate change of
their output, name them (`python tests/test_golden.py` alone lists the names):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py ingest "season report"

Every command still runs, since `season report` reads `synth`'s CSV, but only
the named commands' files and manifest hashes are rewritten: the GAM's last
digits depend on the CPU's BLAS kernels, so a full rewrite would move them in
files whose command did not change.
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


def run_commands(out: Path) -> dict[str, list[str]]:
    """Run COMMANDS into `out`, one BLAS thread, the package under src/, and
    return the files each command wrote, relative to `out`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    written = {}
    for name, argv, stdout_file in COMMANDS:
        before = set(_files(out))
        argv = [a.replace("{out}", str(out)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "rankmargin", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{proc.stderr}"
        if stdout_file:
            (out / stdout_file).write_text(proc.stdout)
        written[name] = sorted(set(_files(out)) - before)
    return written


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _compared_files(root: Path) -> list[str]:
    return [n for n in _files(root) if n not in HASHED and n != "manifest.json"]


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


def regenerate(names: list[str]) -> int:
    """Rewrite the golden files and manifest hashes of the named commands."""
    known = [name for name, _, _ in COMMANDS]
    if not names:
        print("usage: python tests/test_golden.py NAME [NAME ...]; names:",
              ", ".join(repr(name) for name in known))
        return 0
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown command {unknown[0]!r}; names: {', '.join(map(repr, known))}",
              file=sys.stderr)
        return 2
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    changed = [name for name, argv, _ in COMMANDS
               if name not in names and argv not in manifest["commands"]]
    if changed:
        print(f"{changed[0]!r} changed since its golden files were written; name it too",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        written = run_commands(out)
        for name in names:
            for rel in written[name]:
                if rel in HASHED:
                    manifest["sha256"][rel] = _sha256(out / rel)
                else:
                    (GOLDEN / rel).parent.mkdir(parents=True, exist_ok=True)
                    (GOLDEN / rel).write_text((out / rel).read_text())
    doc = {"commands": [argv for _, argv, _ in COMMANDS],
           "sha256": {rel: manifest["sha256"][rel] for rel in HASHED}}
    (GOLDEN / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def test_regenerate_needs_known_names(capsys):
    assert regenerate([]) == 0
    assert "'season report'" in capsys.readouterr().out
    assert regenerate(["ingest", "nope"]) == 2
    assert "unknown command 'nope'" in capsys.readouterr().err


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
