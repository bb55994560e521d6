"""The package's layout: every module-level name has a program caller.

A module-level function or class of ``src/czkit`` must be referenced, by a
``Name`` or an ``Attribute`` node, outside its own definition: in module-level
code of ``src/czkit/*.py``, in a definition that is itself referenced, in
``bench/*.py`` or in the README's "Library entry points" block.  A name that
only tests call belongs in ``tests/oracles.py``.  Every name in
``czkit.__all__`` must resolve.
"""
import ast
import re
from pathlib import Path

import czkit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "czkit"


def _readme_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library entry points\n\n```python\n(.*?)```", text, re.S)
    return block


def _referenced(tree):
    """The names of every Name and Attribute node in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_level_definition_has_a_program_caller():
    definitions = []  # (where, name, the names its body references)
    live = set()  # names referenced by code that runs whatever is called
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{path.name}:{node.lineno}", node.name, _referenced(node) - {node.name}))
            else:
                live |= _referenced(node)
    for path in sorted((ROOT / "bench").glob("*.py")):
        live |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    live |= _referenced(ast.parse(_readme_block()))
    # a definition referenced only from definitions that nothing calls has no
    # program caller either: grow the live set to its fixed point
    grown = True
    while grown:
        grown = False
        for _, name, refs in definitions:
            if name in live and not refs <= live:
                live |= refs
                grown = True
    uncalled = [f"{where} {name}" for where, name, _ in definitions if name not in live]
    assert uncalled == [], "no caller outside the tests: " + ", ".join(uncalled)
    unresolved = [name for name in czkit.__all__ if not hasattr(czkit, name)]
    assert unresolved == [], "unresolved in czkit.__all__: " + ", ".join(unresolved)
