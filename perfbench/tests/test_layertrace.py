"""The outside-in tracer: self-time arithmetic, counters, restoring the
program after a traced pass, and reporting what it cannot measure."""

import importlib
import sys
import types

import pytest

from layertrace import PER_LAYER, WRAP_POINTS, Tracer, WrapPoint, layer_metrics, _resolve


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_module(monkeypatch):
    """A module whose functions call each other through module globals,
    the way nrlab's callers reach the functions they import."""
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")
    source = """
def leaf(n):
    clock.advance(2)
    return list(range(n))

def mid():
    clock.advance(1)
    leaf(3)
    clock.advance(3)
    leaf(4)

def top():
    mid()
    clock.advance(5)
    leaf(1)
"""
    mod.clock = clock
    exec(source, mod.__dict__)
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def count_items(c, out, args, kwargs, orig):
    c["items"] += len(out)


POINTS = [
    WrapPoint("fake_layers", "top", "T"),
    WrapPoint("fake_layers", "mid", "M"),
    WrapPoint("fake_layers", "leaf", "L", count_items),
]


def test_self_times_and_counts_on_a_nested_call_tree(fake_module):
    tracer = Tracer(clock=fake_module.clock)
    with tracer.installed(POINTS):
        tracer.op = 7
        fake_module.top()
    selfs = tracer.self_times()
    assert selfs == {"T": (1, 5.0), "M": (1, 4.0), "L": (3, 6.0)}
    # self times add up to the root span's duration
    assert sum(s for _, s in selfs.values()) == 15.0
    assert tracer.counters["L"]["items"] == 8
    names = [s[0] for s in tracer.spans]
    parents = [names[s[3]] if s[3] >= 0 else None for s in tracer.spans]
    assert list(zip(names, parents)) == [("T", None), ("M", "T"), ("L", "M"), ("L", "M"), ("L", "T")]
    assert {s[4] for s in tracer.spans} == {7}


def test_spans_survive_an_exception_and_wrappers_are_removed(fake_module):
    originals = {name: getattr(fake_module, name) for name in ("top", "mid", "leaf")}

    def boom(n):
        raise RuntimeError("layer failed")

    fake_module.leaf = boom
    originals["leaf"] = boom
    tracer = Tracer(clock=fake_module.clock)
    with pytest.raises(RuntimeError):
        with tracer.installed(POINTS):
            fake_module.top()
    assert {name: getattr(fake_module, name) for name in originals} == originals
    assert [s[0] for s in tracer.spans] == ["T", "M", "L"]
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_nrlab_is_unpatched_after_a_traced_run():
    import nrlab.cli  # noqa: F401  (loads every module the wrap points name)

    before = {(p.module, p.attr): _resolve(p.module, p.attr)[2] for p in WRAP_POINTS}
    tracer = Tracer()
    with tracer.installed(WRAP_POINTS):
        during = {(p.module, p.attr): _resolve(p.module, p.attr)[2] for p in WRAP_POINTS}
        assert all(during[k] is not before[k] for k in before)
        assert getattr(importlib.import_module("nrlab.harness").singular_values, "__wrapped__", None) is before[("nrlab.harness", "singular_values")]
    after = {(p.module, p.attr): _resolve(p.module, p.attr)[2] for p in WRAP_POINTS}
    assert all(after[k] is before[k] for k in before)
    assert not tracer.missing_spans


def test_every_wrapped_span_reports_its_self_time():
    spans = {p.span for p in WRAP_POINTS}
    assert {f"{s}.self_s" for s in spans} <= set(PER_LAYER)


def test_missing_function_and_new_return_type_are_reported_missing(monkeypatch):
    import nrlab.harness as harness

    monkeypatch.delattr(harness, "median")  # a layer reshaped away
    monkeypatch.setattr(harness, "build_system", lambda *a, **k: ("cubes", "in", "a", "tuple"))
    tracer = Tracer()
    with tracer.installed(WRAP_POINTS):
        assert harness.build_system("plus", (0.0, 0.0), ((-2, 2), (-2, 2)), (0, 1))[0] == "cubes"
    values, missing = layer_metrics(tracer)
    assert {"dyadic.median.calls", "dyadic.median.self_s", "dyadic.build_system.cubes"} <= set(missing)
    assert values["dyadic.build_system.calls"] == 1
    assert "dyadic.nodes_in_cube.calls" in values


def test_counters_on_real_layers():
    import numpy as np

    import nrlab.harness as harness
    from nrlab.discretize import make_grid

    tracer = Tracer()
    with tracer.installed(WRAP_POINTS):
        sym = harness.symbol_family("default", 2)[1]  # bump_a45: nonzero on an 8-grid
        control = harness.symbol_family("default", 2)[-1]
        grid = make_grid(2, ((-2, 2), (-2, 2)), 8)
        for b in (sym, control):
            harness.singular_values(harness.assemble_commutator(b, 1, grid))
        system = harness.build_system("plus", np.zeros(2), ((-2, 2), (-2, 2)), (-1, 0))
        cube = system.cubes[0][0]
        harness.nodes_in_cube(grid, cube)
        harness.box_midpoint_mean(sym.func, cube.box, 6)
    values, missing = layer_metrics(tracer)
    assert values["discretize.assemble_commutator.calls"] == 2
    assert values["discretize.assemble_commutator.entries"] == 2 * 64 * 64
    assert values["discretize.assemble_commutator.bytes_computed"] == 8 * 2 * 64 * 64
    assert 0.5 < values["discretize.assemble_commutator.zero_share"] < 1.0
    assert values["spectra.singular_values.zero_short_circuits"] == 1
    assert values["spectra.singular_values.gflop_computed"] == pytest.approx(8 / 3 * 64**3 / 1e9)
    assert values["kernels.riesz_kernel.assembly.pairs"] == 2 * 64 * 64
    assert values["discretize.Symbol.points"] == 2 * 64
    assert values["dyadic.build_system.cubes"] == sum(len(v) for v in system.cubes.values())
    assert values["dyadic.nodes_in_cube.hit_share"] == pytest.approx(4 / 64)  # a side-1 cube holds 2 x 2 nodes of spacing 0.5
    assert values["dyadic.box_midpoint_mean.points"] == 36
    assert not missing
