"""The README's library use: its code block runs, and the package's top level
exports what the block imports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import rankmargin

ROOT = Path(__file__).resolve().parent.parent


def _library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the block reads sample_data/ by a relative path
    exec(compile(_library_block(), "README.md", "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "Mean, validation" in out and "Quadratic" in out


def test_exports_resolve_and_cover_the_block():
    # in a fresh interpreter, where no other module has imported a submodule yet
    check = ("import rankmargin; "
             "print([n for n in rankmargin.__all__ if not hasattr(rankmargin, n)])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
    imported = re.search(r"from rankmargin import \((.*?)\)", _library_block(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(rankmargin.__all__) == names | {"Dataset", "RankMarginError", "__version__"}
