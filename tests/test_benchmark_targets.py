"""The benchmark's span tracer wraps stclab names that still exist.

``perfbench/tracing.py`` skips a wrapped name that is gone and reports it
as a missing span instead of failing, so a deletion in ``src/stclab`` would
only show as a changed count in a benchmark run; this test fails instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in load_targets()])
def test_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
