"""The package's layout: every module-level name and every public method has
a program caller.

A module-level function or class of ``src/czkit``, and a method of such a
class whose name does not start with an underscore, must be referenced, by a
``Name`` or an ``Attribute`` node, outside its own definition: in
module-level code of ``src/czkit/*.py``, in a definition that is itself
referenced, in ``bench/*.py`` or in the README's "Library entry points"
block.  A method counts as referenced by any ``Attribute`` of its name.  A
name that only tests call belongs in ``tests/oracles.py``.  Every name in
``czkit.__all__`` must resolve.  Every field of a dataclass or ``NamedTuple``
of ``src/czkit`` must be read, as an ``Attribute`` load, in ``src/czkit``,
in ``bench/*.py`` or in that README block.
"""
import ast
import re
from pathlib import Path

import czkit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "czkit"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _readme_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library entry points\n\n```python\n(.*?)```", text, re.S)
    return block


def _referenced(*trees):
    """The references in `trees`: `name` for each Name node, `.attr` for each
    Attribute node."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add("." + node.attr)
    return names


def _definitions(path, tree):
    """(where, shown name, the references that call it, the references its
    body makes) for each module-level function and class of `tree`, parsed
    from `path`, and each public method of its classes; a class's own
    references leave out its public methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            public = [m for m in node.body if isinstance(m, FUNCTIONS) and not m.name.startswith("_")]
            for m in public:
                keys = {"." + m.name}
                yield f"{path.name}:{m.lineno}", f"{node.name}.{m.name}", keys, _referenced(m) - keys
            rest = [m for m in node.body if m not in public] + node.bases + node.decorator_list
            keys = {node.name, "." + node.name}
            yield f"{path.name}:{node.lineno}", node.name, keys, _referenced(*rest) - keys
        elif isinstance(node, FUNCTIONS):
            keys = {node.name, "." + node.name}
            yield f"{path.name}:{node.lineno}", node.name, keys, _referenced(node) - keys


def test_every_module_level_definition_has_a_program_caller():
    definitions = []
    live = set()  # names referenced by code that runs whatever is called
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += _definitions(path, tree)
        live |= _referenced(*(n for n in tree.body if not isinstance(n, (ast.ClassDef, *FUNCTIONS))))
    for path in sorted((ROOT / "bench").glob("*.py")):
        live |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    live |= _referenced(ast.parse(_readme_block()))
    # a definition referenced only from definitions that nothing calls has no
    # program caller either: grow the live set to its fixed point
    grown = True
    while grown:
        grown = False
        for _, _, keys, refs in definitions:
            if keys & live and not refs <= live:
                live |= refs
                grown = True
    uncalled = [f"{where} {shown}" for where, shown, keys, _ in definitions if not keys & live]
    assert uncalled == [], "no caller outside the tests: " + ", ".join(uncalled)
    unresolved = [name for name in czkit.__all__ if not hasattr(czkit, name)]
    assert unresolved == [], "unresolved in czkit.__all__: " + ", ".join(unresolved)


def _is_record(node):
    """Whether the class `node` is a dataclass or a ``NamedTuple``."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
    return any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple") for m in marks)


def _loaded_attributes(tree):
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_record_field_is_read_by_the_program():
    fields, read = [], _loaded_attributes(ast.parse(_readme_block()))
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _loaded_attributes(tree)
        if path.parent == PACKAGE:
            records = [c for c in tree.body if isinstance(c, ast.ClassDef) and _is_record(c)]
            fields += [(f"{path.name}:{f.lineno} {c.name}.{f.target.id}", f.target.id) for c in records
                       for f in c.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    assert len(fields) > 20  # the rule sees the records
    unread = [shown for shown, name in fields if name not in read]
    assert unread == [], "fields no program code reads: " + ", ".join(unread)
