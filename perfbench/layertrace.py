"""Outside-in layer tracing for nrlab.

The program is not changed.  For a traced pass the benchmark replaces
each traced function with a wrapper under the name its caller binds
(``nrlab.harness.singular_values``, not only ``nrlab.spectra``), and puts
the originals back afterwards.  Each wrapped call records one span
(name, start, end, parent, operation id); spans stay in memory until the
pass ends.  A layer's self time is the duration of its spans minus the
time their child spans cover.

Counters are recorded at the same boundaries.  Those derived from array
sizes (flops, bytes, entries, shares) are labelled "computed": they say
what the code was asked to do, not what the hardware did.

If a traced function is gone, or a counter no longer understands what a
function returns, the metrics that depend on it are reported missing and
the pass still runs: a later change that reshapes a layer must not break
the end-to-end measurement.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class WrapPoint:
    """One binding to replace: ``module.attr`` (``attr`` may be
    ``Class.method``), recorded as span ``span``; ``count`` updates the
    span's counters from (counters, result, args, kwargs, original)."""

    module: str
    attr: str
    span: str
    count: Optional[Callable] = None


@functools.cache
def _param(func, name):
    """(position, default) of a parameter, so counters read arguments
    without the cost of binding the whole signature on every call."""
    params = list(inspect.signature(func).parameters.values())
    for i, p in enumerate(params):
        if p.name == name:
            return i, p.default
    raise TypeError(f"{func.__qualname__} has no parameter {name!r}")


def _arg(args, kwargs, where, name):
    pos, default = where
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# --- counters --------------------------------------------------------------


def _count_svd(c, out, args, kwargs, orig):
    mat = args[0] if args else kwargs["M"]
    shape = np.shape(getattr(mat, "kernel", mat))
    if not np.any(out.values):
        c["zero_short_circuits"] += 1
        return
    rows, cols = max(shape), min(shape)
    # values-only dense SVD via bidiagonalisation: 4 m n^2 - 4/3 n^3
    # flops, 8/3 M^3 for a square M x M matrix (computed)
    c["gflop_computed"] += (4.0 * rows * cols**2 - 4.0 / 3.0 * cols**3) / 1e9


def _count_assembly(c, out, args, kwargs, orig):
    kernel = out.kernel
    c["entries"] += kernel.size
    c["bytes_computed"] += kernel.size * kernel.itemsize
    c["zeros"] += kernel.size - np.count_nonzero(kernel)


def _count_pairs(c, out, args, kwargs, orig):
    c["pairs"] += np.size(out)


def _count_symbol_points(c, out, args, kwargs, orig):
    # Symbol.__call__(self, x): one value per point of x[..., n]
    c["points"] += math.prod(np.shape(args[1])[:-1])


def _count_t_nodes(c, out, args, kwargs, orig):
    besov = importlib.import_module("nrlab.besov")
    t_grid = _arg(args, kwargs, _param(orig, "t_grid"), "t_grid")
    grid = _arg(args, kwargs, _param(orig, "grid"), "grid")
    t = np.asarray(besov.default_time_grid() if t_grid is None else t_grid, dtype=float)
    # nodes below the grid's resolution floor are dropped by the method
    c["t_nodes_computed"] += int(np.count_nonzero(t >= float(np.max(grid.spacing)) ** 2))


def _count_shifts(c, out, args, kwargs, orig):
    besov = importlib.import_module("nrlab.besov")
    shifts = _arg(args, kwargs, _param(orig, "shift_grid"), "shift_grid")
    grid = _arg(args, kwargs, _param(orig, "grid"), "grid")
    rows = len(besov.default_shift_grid(grid) if shifts is None else np.reshape(shifts, (-1, grid.dim)))
    # one difference norm per even extension, both over the same shifts
    c["shifts_computed"] += 2 * rows


def _count_cubes(c, out, args, kwargs, orig):
    c["cubes"] += sum(len(v) for v in out.cubes.values())


def _count_hits(c, out, args, kwargs, orig):
    c["hits"] += int(np.count_nonzero(out))
    c["scanned"] += out.size


def _count_midpoints(c, out, args, kwargs, orig):
    box = _arg(args, kwargs, _param(orig, "box"), "box")
    ppa = _arg(args, kwargs, _param(orig, "points_per_axis"), "points_per_axis")
    c["points"] += ppa ** np.shape(box)[0]


# The bindings the workloads' call paths go through.
WRAP_POINTS = [
    WrapPoint("nrlab.harness", "singular_values", "spectra.singular_values", _count_svd),
    WrapPoint("nrlab.harness", "russo_bound", "spectra.russo_bound"),
    WrapPoint("nrlab.harness", "mixed_norm", "spectra.mixed_norm"),
    WrapPoint("nrlab.spectra", "mixed_norm", "spectra.mixed_norm"),
    WrapPoint("nrlab.harness", "assemble_commutator", "discretize.assemble_commutator", _count_assembly),
    WrapPoint("nrlab.besov", "apply_semigroup", "discretize.apply_semigroup"),
    WrapPoint("nrlab.harness", "ball_microgrid", "discretize.ball_microgrid"),
    WrapPoint("nrlab.discretize", "Symbol.__call__", "discretize.Symbol", _count_symbol_points),
    # riesz_kernel is split by caller: matrix assembly vs the statistics
    WrapPoint("nrlab.discretize", "riesz_kernel", "kernels.riesz_kernel.assembly", _count_pairs),
    WrapPoint("nrlab.harness", "riesz_kernel", "kernels.riesz_kernel.stats", _count_pairs),
    WrapPoint("nrlab.harness", "besov_heat_norm", "besov.besov_heat_norm", _count_t_nodes),
    WrapPoint("nrlab.harness", "besov_neumann_norm", "besov.besov_neumann_norm", _count_shifts),
    WrapPoint("nrlab.harness", "build_system", "dyadic.build_system", _count_cubes),
    WrapPoint("nrlab.harness", "nodes_in_cube", "dyadic.nodes_in_cube", _count_hits),
    WrapPoint("nrlab.dyadic", "nodes_in_cube", "dyadic.nodes_in_cube", _count_hits),
    WrapPoint("nrlab.harness", "conditional_expectation", "dyadic.conditional_expectation"),
    WrapPoint("nrlab.dyadic", "conditional_expectation", "dyadic.conditional_expectation"),
    WrapPoint("nrlab.harness", "dyadic_energy_sum", "dyadic.dyadic_energy_sum"),
    WrapPoint("nrlab.harness", "median", "dyadic.median"),
    WrapPoint("nrlab.harness", "box_midpoint_mean", "dyadic.box_midpoint_mean", _count_midpoints),
    WrapPoint("nrlab.cli", "ratio_study", "harness.study"),
    WrapPoint("nrlab.cli", "divergence_study", "harness.study"),
    WrapPoint("nrlab.cli", "lower_bound_audit", "harness.study"),
    WrapPoint("nrlab.cli", "upper_bound_audit", "harness.study"),
    WrapPoint("nrlab.harness", "_energy_statistic", "harness.energy"),
    WrapPoint("nrlab.harness", "_nwo_statistic", "harness.nwo"),
    WrapPoint("nrlab.harness", "_tail_statistic", "harness.tail"),
    WrapPoint("nrlab.harness", "_double_integral_statistic", "harness.double"),
    WrapPoint("nrlab.harness", "_oscillation_partials", "harness.oscillation"),
    WrapPoint("nrlab.cli", "write_rows_csv", "harness.write_csv"),
    WrapPoint("nrlab.cli", "write_spectrum_csv", "harness.write_csv"),
    WrapPoint("nrlab.harness", "write_kv_file", "kvconfig.write_kv_file"),
    WrapPoint("nrlab.cli", "main", "cli.main"),
]

# Per-layer metrics in BENCHMARK.json order: name -> unit.
PER_LAYER = {
    "spectra.singular_values.self_s": "s",
    "spectra.singular_values.calls": "count",
    "spectra.singular_values.zero_short_circuits": "count",
    "spectra.singular_values.gflop_computed": "GFLOP",
    "spectra.singular_values.gflops": "GFLOP/s",
    "spectra.russo_bound.self_s": "s",
    "spectra.mixed_norm.self_s": "s",
    "discretize.assemble_commutator.self_s": "s",
    "discretize.assemble_commutator.calls": "count",
    "discretize.assemble_commutator.entries": "count",
    "discretize.assemble_commutator.bytes_computed": "B",
    "discretize.assemble_commutator.zero_share": "fraction",
    "discretize.apply_semigroup.calls": "count",
    "discretize.apply_semigroup.self_s": "s",
    "discretize.ball_microgrid.calls": "count",
    "discretize.ball_microgrid.self_s": "s",
    "discretize.Symbol.calls": "count",
    "discretize.Symbol.points": "count",
    "discretize.Symbol.self_s": "s",
    "kernels.riesz_kernel.assembly.self_s": "s",
    "kernels.riesz_kernel.assembly.pairs": "count",
    "kernels.riesz_kernel.stats.calls": "count",
    "kernels.riesz_kernel.stats.pairs": "count",
    "kernels.riesz_kernel.stats.self_s": "s",
    "besov.besov_heat_norm.calls": "count",
    "besov.besov_heat_norm.self_s": "s",
    "besov.besov_neumann_norm.calls": "count",
    "besov.besov_neumann_norm.self_s": "s",
    "besov.t_nodes_computed": "count",
    "besov.shifts_computed": "count",
    "dyadic.build_system.calls": "count",
    "dyadic.build_system.self_s": "s",
    "dyadic.build_system.cubes": "count",
    "dyadic.nodes_in_cube.calls": "count",
    "dyadic.nodes_in_cube.self_s": "s",
    "dyadic.nodes_in_cube.hit_share": "fraction",
    "dyadic.conditional_expectation.calls": "count",
    "dyadic.conditional_expectation.self_s": "s",
    "dyadic.dyadic_energy_sum.self_s": "s",
    "dyadic.median.calls": "count",
    "dyadic.median.self_s": "s",
    "dyadic.box_midpoint_mean.calls": "count",
    "dyadic.box_midpoint_mean.self_s": "s",
    "dyadic.box_midpoint_mean.points": "count",
    "harness.study.self_s": "s",
    "harness.energy.self_s": "s",
    "harness.nwo.self_s": "s",
    "harness.tail.self_s": "s",
    "harness.double.self_s": "s",
    "harness.oscillation.self_s": "s",
    "harness.write_csv.self_s": "s",
    "kvconfig.write_kv_file.self_s": "s",
    "cli.main.self_s": "s",
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

# Metrics derived from array sizes and arguments, not measured.
COMPUTED = frozenset(
    {
        "spectra.singular_values.gflop_computed",
        "spectra.singular_values.gflops",
        "discretize.assemble_commutator.bytes_computed",
        "discretize.assemble_commutator.zero_share",
        "besov.t_nodes_computed",
        "besov.shifts_computed",
        "dyadic.nodes_in_cube.hit_share",
        "dyadic.box_midpoint_mean.points",
    }
)

# Metrics named after a counter of another span; name -> (span, counter).
_COUNTER_ALIASES = {
    "besov.t_nodes_computed": ("besov.besov_heat_norm", "t_nodes_computed"),
    "besov.shifts_computed": ("besov.besov_neumann_norm", "shifts_computed"),
}


def _resolve(module: str, attr: str):
    """(owner, name, current value) of a binding, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    # a method lives in the class __dict__; read it there so restoring
    # puts back exactly what was replaced
    current = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, current


class Tracer:
    """Span recorder; ``with tracer.installed(points):`` wraps, then restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, operation id]
        self.counters = defaultdict(lambda: defaultdict(int))
        self.op = 0
        self.missing_spans = set()
        self.broken_counters = set()  # span names whose counter raised
        self._stack = []
        self._saved = []

    def wrap(self, span: str, func, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None and span not in self.broken_counters:
                try:
                    count(self.counters[span], out, args, kwargs, func)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    self.broken_counters.add(span)
            return out

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, points):
        installed = set()
        for p in points:
            found = _resolve(p.module, p.attr)
            if found is None:
                continue
            owner, name, current = found
            self._saved.append((owner, name, current))
            setattr(owner, name, self.wrap(p.span, current, p.count))
            installed.add(p.span)
        self.missing_spans |= {p.span for p in points} - installed

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, points):
        self.install(points)
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> dict:
        """span name -> (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            out[name][0] += 1
            out[name][1] += (end - start) - inner
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path):
        """Spans as gzip CSV: id, name, start, end (s from the first
        span), parent id (-1 for a root), operation id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metric values from a traced pass, and the names of the
    span metrics that could not be measured.  The proc.* and trace.*
    metrics come from the pass timings and are filled in by the caller."""
    selfs = tracer.self_times()
    values, missing = {}, []
    for name in PER_LAYER:
        if name.startswith(("proc.", "trace.")):
            continue
        span, field = _COUNTER_ALIASES.get(name, name.rsplit(".", 1))
        calls, self_s = selfs.get(span, (0, 0.0))
        counters = tracer.counters[span]
        if span in tracer.missing_spans or (field not in ("calls", "self_s") and span in tracer.broken_counters):
            missing.append(name)
        elif field == "self_s":
            values[name] = self_s
        elif field == "calls":
            values[name] = calls
        elif field == "gflops":
            values[name] = counters["gflop_computed"] / self_s if self_s > 0 else 0.0
        elif field == "zero_share":
            values[name] = counters["zeros"] / counters["entries"] if counters["entries"] else 0.0
        elif field == "hit_share":
            values[name] = counters["hits"] / counters["scanned"] if counters["scanned"] else 0.0
        else:
            values[name] = counters[field]
    return values, missing
