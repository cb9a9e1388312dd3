"""Importing a module of stclab loads only the stclab modules it uses.

The package's ``__init__`` re-exports nothing, so every name has one import
path, ``from stclab.<module> import name``, and a fresh ``import
stclab.<module>`` loads exactly the modules its own module-level relative
imports reach: the layering mathcore <- stcodes <- demod <- designmetrics,
channel, chanest, harness <- cli holds in fact, not only on paper.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stclab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def relative_imports(module):
    """The stclab modules that ``module``'s top-level ``from . ...`` lines name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else (a.name for a in node.names)


def reached(module):
    """``module`` and every module its relative imports reach, transitively."""
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(relative_imports(m))
    return seen


def loaded_by(statement):
    """The stclab submodules a fresh interpreter has loaded after ``statement``."""
    code = (
        f"import json, sys; {statement}; "
        "print(json.dumps([m for m in sys.modules if m.startswith('stclab.')]))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    return {m.removeprefix("stclab.") for m in json.loads(out)}


def test_every_module_is_listed():
    assert {"mathcore", "stcodes", "demod", "harness", "cli"} <= set(MODULES)
    assert reached("mathcore") == {"mathcore", "errors"}
    assert reached("cli") == set(MODULES)


def test_package_loads_no_module():
    assert loaded_by("import stclab") == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_loads_what_its_imports_reach(module):
    assert loaded_by(f"import stclab.{module}") == reached(module)


def stclab_from_imports(source):
    """(module, name) of every ``from stclab... import name`` in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stclab":
            yield from ((node.module, alias.name) for alias in node.names)


def test_names_are_imported_from_their_modules():
    # `from stclab import x` may only name a module, never a function or class
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(ROOT.glob("*/*.py"))]
    sources += [("README.md", s) for s in re.findall(r"```python\n(.*?)```", readme, re.S)]
    flat = [
        (where, name)
        for where, source in sources
        for module, name in stclab_from_imports(source)
        if module == "stclab" and name not in MODULES
    ]
    assert flat == []
