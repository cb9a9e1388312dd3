"""README.md's config example and command list match the program.

The README is the reference for the sweep config format and the
``stc-lab`` subcommands, so a key or a subcommand added, renamed or
removed in the package without the README fails here.
"""

import argparse
import re
from pathlib import Path

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
