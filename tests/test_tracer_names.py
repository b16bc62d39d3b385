"""Every name perfbench's tracer wraps still resolves in the package.

`perfbench/spans.py` replaces module attributes of `rankmargin.cli` and
`rankmargin.models` by name; a name deleted from either module would only
show up when a traced benchmark runs. spans.py imports only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("module, attr", sorted(_boundaries()))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"rankmargin.{module}"), attr))
