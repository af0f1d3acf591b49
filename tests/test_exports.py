"""Every public name is used: each name in a module's `__all__` is
re-exported by `nrlab/__init__.py` or named in package code outside its
own definition and its `__all__` entry.  A name only tests call is test
code and belongs in the tests."""

import ast
from pathlib import Path

import nrlab

SRC = Path(nrlab.__file__).parent


def _names_used(tree) -> set:
    """Names a module reads, the attributes it reads and the names it
    imports; a `def`, a `class`, an assignment target and an `__all__`
    string are not reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _declared(tree) -> list:
    """The strings of a module's `__all__` list, or []."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _unused_exports(sources: dict) -> list:
    """Each `__all__` name of `sources` (module stem -> source text,
    `__init__` included) that `__init__` does not re-export and no module
    names, as "module.name"."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    used = set().union(*(_names_used(tree) for tree in trees.values()))
    return sorted(
        f"{stem}.{name}"
        for stem, tree in trees.items()
        if stem != "__init__"
        for name in _declared(tree)
        if name not in used
    )


def test_unused_export_check_flags_names_no_module_reads():
    sources = {
        "__init__": "from .a import shown\n",
        "a": (
            '__all__ = ["shown", "called", "imported", "orphan", "CONST", "spare"]\n'
            "def shown(): pass\n"
            "def called(): return 1\n"
            "def imported(): pass\n"
            "def orphan(): pass\n"
            "CONST = 2\n"
            "spare = 3\n"
            "x = called()\n"
            "y = __import__('m').CONST\n"
        ),
        "b": "from .a import imported\n",
    }
    assert _unused_exports(sources) == ["a.orphan", "a.spare"]


def test_every_exported_name_is_reexported_or_used_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 2
    assert _unused_exports(sources) == []
