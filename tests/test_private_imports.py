"""Modules share only public names: no nrlab module imports a `_private`
name from another.  A step one module needs from another is made public
there, so each module's private helpers stay free to change."""

import ast
from pathlib import Path

import nrlab


def _private_imports(source: str) -> list:
    """The `_private` names `source` imports from the package, as
    "module.name"; relative imports are the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "nrlab"):
            module = "." * node.level + (node.module + "." if node.module else "")
            found += [module + alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [
                alias.name
                for alias in node.names
                if alias.name.split(".")[0] == "nrlab" and any(part.startswith("_") for part in alias.name.split("."))
            ]
    return found


def test_private_import_check_flags_package_privates_only():
    source = (
        "from .spectra import _inner_norms, mixed_norm\n"
        "from nrlab.dyadic import _cube_means\n"
        "from . import _helpers\n"
        "import nrlab._impl\n"
        "from __future__ import annotations\n"
        "from numpy import _core\n"
        "import nrlab.spectra\n"
    )
    assert _private_imports(source) == [".spectra._inner_norms", "nrlab.dyadic._cube_means", "._helpers", "nrlab._impl"]


def test_package_modules_import_no_private_names_from_each_other():
    sources = sorted(Path(nrlab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = {path.name: _private_imports(path.read_text()) for path in sources}
    assert {name: names for name, names in found.items() if names} == {}
