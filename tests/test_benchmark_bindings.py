"""The benchmark's layer trace (`perfbench/layertrace.py`) wraps nrlab
functions under the names their callers bind, listed in `WRAP_POINTS`.
A change that drops or renames one of those bindings leaves its
per-layer metrics missing; this test fails on it first."""

import importlib
import runpy
from pathlib import Path

import nrlab.cli  # noqa: F401  loads every module the wrap points name

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _resolves(module: str, attr: str) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_wrapped_nrlab_binding_resolves():
    points = runpy.run_path(str(LAYERTRACE))["WRAP_POINTS"]
    names = [(p.module, p.attr) for p in points if p.module.split(".")[0] == "nrlab"]
    assert names
    assert [f"{m}.{a}" for m, a in names if not _resolves(m, a)] == []
