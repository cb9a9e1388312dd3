"""The demo scripts import only names that stclab has.

The demos are too slow to run in the test suite, so this reads their
imports with ``ast`` instead: a rename in the package that a demo still
uses fails here rather than at the demo's first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def stclab_imports(path):
    """(module, name) for every name the script imports from stclab; name is
    None for a plain ``import stclab...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stclab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "stclab")


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(stclab_imports(path))
    assert imports, f"{path.name} imports nothing from stclab"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module}.{name} is missing"
