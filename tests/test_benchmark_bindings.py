"""The benchmark's layer trace (`perfbench/layertrace.py`) wraps nrlab
functions under the names their callers bind, listed in `WRAP_POINTS`,
its counters read some arguments by parameter name
(`_param(orig, "grid")`), and some attributes of the wrapped call's
result (`out.kernel`).  A change that drops or renames one of those
bindings, parameters or attributes leaves its per-layer metrics
missing; these tests fail on it first.  The `harness.study` wrap points
rebind the studies in `nrlab.cli`, so the CLI must look them up there
when a command runs."""

import ast
import dataclasses
import importlib
import inspect
import runpy
import typing
from pathlib import Path

import pytest

import nrlab.cli  # loads every module the wrap points name
from nrlab.harness import Report

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _resolve(module: str, attr: str):
    """The object bound at module.attr, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split("."):
        if not hasattr(owner, part):
            return None
        owner = getattr(owner, part)
    return owner


def _nrlab_points():
    points = runpy.run_path(str(LAYERTRACE))["WRAP_POINTS"]
    return [p for p in points if p.module.split(".")[0] == "nrlab"]


def _parameters_read_by_name() -> dict:
    """Counter function name -> the parameter names it reads through
    `_param(orig, "<name>")`."""
    reads = {}
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        names = [
            call.args[1].value
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "_param"
            and len(call.args) == 2
            and isinstance(call.args[1], ast.Constant)
        ]
        if names:
            reads[node.name] = names
    return reads


def _result_attributes_read() -> dict:
    """Counter function name -> the attribute names it reads from the
    wrapped call's result, `out.<name>`."""
    reads = {}
    for node in ast.parse(LAYERTRACE.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        names = sorted(
            {
                attr.attr
                for attr in ast.walk(node)
                if isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name) and attr.value.id == "out"
            }
        )
        if names:
            reads[node.name] = names
    return reads


def test_every_wrapped_nrlab_binding_resolves():
    names = [(p.module, p.attr) for p in _nrlab_points()]
    assert names
    assert [f"{m}.{a}" for m, a in names if _resolve(m, a) is None] == []


def test_every_parameter_a_counter_reads_by_name_exists():
    reads = _parameters_read_by_name()
    assert set(reads.get("_count_shifts", ())) == {"grid", "shift_grid"}
    checked, missing = 0, []
    for p in _nrlab_points():
        if p.count is None or p.count.__name__ not in reads:
            continue
        func = _resolve(p.module, p.attr)
        params = inspect.signature(func).parameters if func is not None else {}
        for name in reads[p.count.__name__]:
            checked += 1
            if name not in params:
                missing.append(f"{p.module}.{p.attr}({name})")
    assert checked >= 6
    assert missing == []


def test_every_result_attribute_a_counter_reads_exists():
    # a counter whose attribute is gone stops silently: the tracer marks
    # it broken and reports its metrics missing
    reads = _result_attributes_read()
    assert reads.get("_count_assembly") == ["kernel"]
    checked, missing = set(), []
    for p in _nrlab_points():
        if p.count is None or p.count.__name__ not in reads:
            continue
        func = _resolve(p.module, p.attr)
        returned = typing.get_type_hints(func).get("return") if func is not None else None
        for name in reads[p.count.__name__]:
            fields = {f.name for f in dataclasses.fields(returned)} if dataclasses.is_dataclass(returned) else set()
            if returned is not None and (name in fields or hasattr(returned, name)):
                checked.add(f"{returned.__name__}.{name}")
            else:
                missing.append(f"{p.module}.{p.attr} -> {returned}.{name}")
    assert missing == []
    assert {"OperatorMatrix.kernel", "SingularSpectrum.values", "DyadicSystem.cubes"} <= checked


def _unused_imports() -> list:
    """(module, name) of each import in src/nrlab marked `noqa: F401`:
    kept with no caller in its module."""
    src = Path(__file__).resolve().parents[1] / "src" / "nrlab"
    return [
        (f"nrlab.{path.stem}", line.partition("#")[0].strip().rstrip(",").split(" as ")[-1])
        for path in sorted(src.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "noqa: F401" in line.partition("#")[2]
    ]


def test_every_unused_import_is_a_wrap_point():
    # an import with no caller is kept only for the layer trace to wrap;
    # once no wrap point names it, it is dead and must go with it
    wrapped = {(p.module, p.attr) for p in _nrlab_points()}
    assert [f"{m}.{a}" for m, a in _unused_imports() if (m, a) not in wrapped] == []


@pytest.mark.parametrize(
    "command, study",
    [
        ("verify", "verify_suite"),
        ("ratio-study", "ratio_study"),
        ("divergence-study", "divergence_study"),
        ("lower-audit", "lower_bound_audit"),
        ("upper-audit", "upper_bound_audit"),
    ],
)
def test_cli_calls_the_study_bound_in_its_namespace_when_the_command_runs(monkeypatch, tmp_path, command, study):
    # a dispatch that captured the functions at import would bypass a
    # rebinding, and a traced pass would read harness.study.self_s = 0
    calls = []

    def recorder(cfg):
        calls.append(cfg)
        return Report(command, [], {}, True)

    monkeypatch.setattr(nrlab.cli, study, recorder)
    assert nrlab.cli.main([command, "--grid", "8,16", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1 and calls[0].grid_sizes == (8, 16)
