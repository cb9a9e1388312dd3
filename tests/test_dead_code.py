"""Every module-level function and class of ``src/stclab`` is used by the
package itself.

A name that only its own tests call is code the simulator does not run.
The check walks the package's syntax trees: a definition is used when some
name or attribute in ``src/stclab``, outside the definition itself, spells
it; an import alone does not count.  Exempt are the names the benchmark's
span tracer wraps (``perfbench/tracing.py``'s ``TARGETS``, read without
importing it) and the exhaustive oracles kept for the decoders' checks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stclab"

# oracles that only tests call, kept on purpose
KEPT_ORACLES = {
    # every trellis path as a block codebook: exhaustive ML over it is the
    # reference for viterbi_decode
    "trellis_path_codebook",
}


def traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TARGETS" for t in node.targets
        ):
            return {target[1] for target in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def unused_definitions():
    """(module, name) of each module-level function or class that nothing
    else in the package spells."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    uses = []  # (module, line, name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (where == module and line in inside)
                for where, line, name in uses
            ):
                unused.append((module, node.name))
    return unused


def test_every_definition_is_used_by_the_package():
    exempt = traced_names() | KEPT_ORACLES
    assert [d for d in unused_definitions() if d[1] not in exempt] == []


def test_kept_oracles_are_still_unused():
    # an allowlisted name the package now calls, or one that is gone,
    # leaves the list
    assert {name for _, name in unused_definitions()} >= KEPT_ORACLES
