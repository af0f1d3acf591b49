"""The package is numpy-only: every module imports from the standard
library, numpy and the package itself, and nothing else."""

import ast
import sys
from pathlib import Path

import nrlab

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nrlab"}


def _foreign_imports(source: str) -> list:
    """Top-level names of the modules `source` imports from outside ALLOWED;
    relative imports are the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name.split(".")[0] for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_import_check_flags_a_third_party_module():
    assert _foreign_imports("import scipy.linalg\nfrom scipy import sparse\n") == ["scipy", "scipy"]
    assert _foreign_imports("import math, numpy as np\nfrom . import dyadic\nfrom nrlab import kernels\n") == []


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(nrlab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    foreign = {path.name: _foreign_imports(path.read_text()) for path in sources}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
