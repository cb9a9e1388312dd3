"""README.md's config example, command list, Layout calls and Python
examples match the program.

The README is the reference for the sweep config format, the ``stc-lab``
subcommands, the calls its Layout table quotes and the library examples, so
a key, a subcommand or a parameter added, renamed or removed in the package
without the README fails here, and every ``python`` block runs.
"""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import pytest

from stclab.cli import build_parser
from stclab.harness import _CONFIG_KEYS, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(lang, after=""):
    """The first ```lang fenced block that follows the text ``after``."""
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_config_block_parses():
    cfg = parse_config(fenced_block("ini", "### Sweep config format"))
    assert cfg.code == "golden"


def test_config_block_names_every_key():
    block = fenced_block("ini", "### Sweep config format")
    keys = re.findall(r"^#?\s*([\w.]+)\s*=", block, re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(_CONFIG_KEYS)


def test_command_block_names_every_subcommand():
    block = fenced_block("", "## Command line")
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("stc-lab ")]
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)


def layout_calls():
    """(module, name, parameter names) of every `name(arg, ...)` call quoted
    in a row of README's Layout table."""
    calls = []
    for module, cell in re.findall(r"^\| `(stclab\.\w+)` \| (.*) \|$", README, re.M):
        for name, args in re.findall(r"`(\w+)\(((?:\w+(?:=\w+)?(?:, )?)*)\)`", cell):
            calls.append((module, name, [a.split("=")[0] for a in args.split(", ") if a]))
    return calls


def test_layout_calls_name_their_parameters():
    # each quoted call names a callable of its row's module and that
    # callable's leading parameters; only parameters with defaults may follow
    calls = layout_calls()
    assert {"apply_channel", "generate_fading", "DecodeResult"} <= {c[1] for c in calls}
    for module, name, quoted in calls:
        fn = getattr(importlib.import_module(module), name)
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params[: len(quoted)]] == quoted, (module, name)
        assert all(p.default is not p.empty for p in params[len(quoted) :]), (module, name)


PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def test_python_blocks_are_found():
    assert len(PYTHON_BLOCKS) == 3


def block_id(block):
    """The module the block's first ``from ... import`` reads."""
    return re.search(r"^from (\S+)", block, re.M).group(1)


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=block_id)
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
