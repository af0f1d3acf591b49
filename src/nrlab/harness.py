"""Experiment orchestration: equivalence and divergence studies, the
lower- and upper-bound audits, the invariant verification suite, and
deterministic CSV reporting.

All randomness flows through one seeded generator per run and every
float is written with repr-compatible precision, so identical config
plus seed reproduces byte-identical outputs.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .besov import (
    BesovParams,
    besov_heat_norm,
    besov_neumann_norm,
    default_shift_grid,
    default_time_grid,
    resolution_floor,
)
from .discretize import (
    Symbol,
    apply_semigroup,
    assemble_commutator,
    ball_microgrid,
    check_grid,
    make_grid,
    row_blocks,
    support_core,
)
from .dyadic import (
    Cube,
    SampledField,
    box_midpoint_mean,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    build_system,
    conditional_expectation,
    dyadic_energy_sum,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    dyadic_energy_sums,
    finest_resolved_generation,
    generation_labels,
    haar_basis,
    labelled_expectation,
    martingale_difference,
    median,
    midpoint_nodes,
    nodes_in_cube,
)
from .kernels import (
    DirectTerm,
    KernelParams,
    cz_bounds_check,
    heat_kernel_neumann,
    riesz_direct_term,
    riesz_kernel,
    riesz_kernel_from_direct,
    sign_witness,
    squared_distance,
)
from .kvconfig import read_kv_file, write_kv_file
from .spectra import (
    abs_power,
    mixed_norm,
    operator_column_norms,
    russo_bound,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    schatten_norm,
    singular_values,
    weak_outer_norm,
    weak_schatten_norm,
)

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "Report",
    "symbol_family",
    "lattice_shift_sample",
    "ratio_study",
    "divergence_study",
    "lower_bound_audit",
    "upper_bound_audit",
    "verify_suite",
    "sign_witness_audit",
    "write_rows_csv",
    "write_spectrum_csv",
    "write_invariants_csv",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    n: int = 2
    p: float = 4.0
    ell: int = 1
    box: tuple = ((-2.0, 2.0), (-2.0, 2.0))
    grid_sizes: tuple = (32, 64)
    family: str = "default"
    t_min: float = 1e-3
    t_max: float = 10.0
    t_per_decade: int = 16
    shift_per_decade: int = 16
    shift_angles: int = 16
    witness_A: float = 16.0
    num_lattice_shifts: int = 9
    k_min: int = -1
    stat_k_max: int = 2
    # calibrated constants; studies assert against these, never silently.
    # The audit_C_* values are norm-level limits frozen from the built-in
    # family at N=32, p=4, ell=1 with ~25% headroom over the measured max.
    ratio_spread_max: float = 20.0
    ratio_drift_max: float = 0.15
    divergence_growth_min: float = 1.5
    audit_C_energy: float = 1.25
    audit_C_nwo: float = 7e-5
    audit_C_tail: float = 2.2
    audit_C_double: float = 6.0
    russo_slack: float = 1.1
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        pairs = np.atleast_2d(np.asarray(self.box, dtype=object))
        self.box = tuple(tuple(_as_float("box entry", v) for v in pair) for pair in pairs)
        # field types are annotation strings here (postponed evaluation)
        for f in fields(self):
            if f.type == "int":
                setattr(self, f.name, _as_int(f.name, getattr(self, f.name)))
        sizes = np.atleast_1d(np.asarray(self.grid_sizes, dtype=object)).tolist()
        self.grid_sizes = tuple(_as_int("grid_sizes entry", v) for v in sizes)
        if len(self.box) != self.n:
            raise ValueError(f"box must have one (lo, hi) pair per dimension, got {len(self.box)} for n={self.n}")
        if any(lo >= hi for lo, hi in self.box):
            raise ValueError("box pairs must satisfy lo < hi")
        # every study compares the two halves
        if not self.box[-1][0] < 0.0 < self.box[-1][1]:
            raise ValueError(f"box must straddle x_n = 0 on its last axis, got {self.box[-1]}")
        if any(n2 <= n1 for n1, n2 in zip(self.grid_sizes, self.grid_sizes[1:])):
            raise ValueError("grid size ladder must be strictly increasing")
        if not 1 <= self.ell <= self.n:
            raise ValueError("ell must lie in 1..n")
        if not self.grid_sizes:
            raise ValueError("grid_sizes must name at least one grid size")
        for N in self.grid_sizes:
            try:
                check_grid(self.n, self.box, N)
            except ValueError as exc:
                raise ValueError(f"grid_sizes entry {N} is rejected: {exc}") from None
        # a bad float would otherwise surface minutes later, inside an
        # SVD, as an empty sup or as a silent FAIL
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (math.isfinite(_as_float(f.name, value)) and value > 0.0):
                raise ValueError(f"{f.name} must be finite and > 0, got {value}")
        if not self.t_min < self.t_max:
            raise ValueError(f"t_min must be < t_max, got {self.t_min} >= {self.t_max}")
        lows = {"t_per_decade": 1, "shift_per_decade": 1, "shift_angles": 1, "num_lattice_shifts": 1, "seed": 0}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.k_min > self.stat_k_max:
            raise ValueError(f"k_min must be <= stat_k_max, got {self.k_min} > {self.stat_k_max}")
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {self.family!r}")
        symbol_family(self.family, self.n)  # refuses a family of another dimension
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            # where a run writes is not part of the experiment; keeping it
            # out of serialized configs makes emitted artifacts identical
            # no matter which directory the run targeted
            if f.name == "out_dir":
                continue
            v = getattr(self, f.name)
            if f.name == "box":
                out[f.name] = [x for pair in v for x in pair]
            elif isinstance(v, tuple):
                out[f.name] = list(v)
            else:
                out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(data)
        if "box" in kw:
            flat = np.asarray(kw["box"], dtype=object).ravel().tolist()
            if len(flat) % 2:
                raise ValueError("box must flatten to lo/hi pairs")
            kw["box"] = tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))
        return cls(**kw)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_kv_file(path))

    def to_file(self, path):
        write_kv_file(path, self.to_dict())

    def updated(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


def _as_int(name: str, value) -> int:
    """`value` as an int, or a ValueError naming the field: a float or a
    bool would be truncated, or fail far from the config that caused it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def _as_float(name: str, value) -> float:
    """`value` as a float, or a ValueError naming the field: a bool or a
    string is not a number, even where Python would convert it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass
class ReportRow:
    experiment: str
    symbol: str
    N: int
    schatten: float
    besov: float
    ratio: float
    aux: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        for label, value in (("schatten", self.schatten), ("besov", self.besov)):
            if math.isinf(value):
                raise ValueError(f"{label} must be finite")


@dataclass
class Report:
    experiment: str
    rows: list
    summary: dict
    passed: bool
    # id -> (SingularSpectrum, summary-dict-or-None), written as spectrum_<id>.csv
    spectra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# symbol families


def _mollifier(center, radius):
    """Smooth compactly supported bump exp(1 - 1/(1 - s^2)), s = |x-c|/R."""
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def func(x):
        x = np.asarray(x, dtype=float)
        s2 = squared_distance(x, c) / r**2
        out = np.zeros(s2.shape)
        inside = s2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    return func


# A family is a tuple of rows (name, kind, *args): "bump" and "odd_bump"
# (x_n times a bump) take a centre and a radius, "halfconst" the values on
# the plus and the minus half, "sum" a tuple of (centre, radius) bumps.
# Rows hold no callables, so a comprehension can dilate or mirror a family.
_FAMILIES = {
    "default": (
        ("bump_a35", "bump", (0.0, 0.5), 0.35),
        ("bump_a45", "bump", (0.0, 0.5), 0.45),
        ("bump_b35", "bump", (-0.5, 0.45), 0.35),
        ("odd_bump", "odd_bump", (0.3, 0.0), 0.7),
        ("bump_minus", "bump", (0.2, -0.55), 0.35),
        ("halfconst", "halfconst", 1.0, -0.5),
        ("uniform", "halfconst", 0.7, 0.7),
    ),
    "divergence": (
        ("multiscale", "sum", (((-0.4, 0.45), 0.5), ((0.35, 0.35), 0.22), ((0.1, 0.8), 0.1))),
        # finer feature scales than the ratio-study family on purpose: the
        # endpoint growth window is [grid spacing, feature radius]
        ("bump_sharp", "bump", (0.0, 0.4), 0.3),
        ("odd_bump", "odd_bump", (0.3, 0.0), 0.45),
        ("halfconst", "halfconst", 1.0, -0.5),
        ("uniform", "halfconst", 0.7, 0.7),
    ),
}


def _bumps(row) -> tuple:
    """The (centre, radius) pairs of a family row's bumps."""
    _, kind, *args = row
    return {"bump": (args,), "odd_bump": (args,), "halfconst": (), "sum": args[0]}[kind]


def _symbol(row) -> Symbol:
    """The `Symbol` of one family row."""
    name, kind, *args = row
    if kind == "halfconst":
        c_plus, c_minus = map(float, args)
        return Symbol(name, lambda x: np.where(x[..., -1] >= 0.0, c_plus, c_minus), "perhalf-constant")
    parts = [_mollifier(centre, radius) for centre, radius in _bumps(row)]
    if kind == "sum":
        return Symbol(name, lambda x: sum(part(x) for part in parts))
    if kind == "odd_bump":
        return Symbol(name, lambda x: x[..., -1] * parts[0](x))
    return Symbol(name, parts[0])


def symbol_family(name: str, n: int) -> list:
    if name not in _FAMILIES:
        raise ValueError(f"unknown symbol family {name!r}; have {sorted(_FAMILIES)}")
    rows = _FAMILIES[name]
    dims = {len(centre) for row in rows for centre, _ in _bumps(row)}
    if dims - {n}:
        raise ValueError(f"symbol family {name!r} is {('one', 'two', 'three')[max(dims) - 1]}-dimensional, got n={n}")
    return [_symbol(row) for row in rows]


def lattice_shift_sample(n: int, count: int = 9) -> np.ndarray:
    """Deterministic shift sample in the unit ball, 0 and the one-third
    corner shifts first, then low-discrepancy fill."""
    pts = [np.zeros(n)]
    for corner in itertools.product((0.0, 1.0 / 3.0), repeat=n):
        if any(corner):
            pts.append(np.asarray(corner))
    # additive low-discrepancy sequence from the generalized golden ratio
    phi = 1.0
    for _ in range(32):
        phi = (1.0 + phi) ** (1.0 / (n + 1))
    alpha = np.array([phi ** (-(j + 1)) for j in range(n)])
    i = 1
    while len(pts) < count:
        pts.append((np.modf(i * alpha)[0] - 0.5) * 0.8)
        i += 1
    return np.asarray(pts[:count])


# ---------------------------------------------------------------------------
# statistics shared by the studies

# midpoints per axis of the micro-quadratures: the NWO statistic's child
# cubes and witness balls, and the oscillation statistic's grandchildren
_NWO_CHILD_PPA = 6
_NWO_BALL_PPA = 8
_OSCILLATION_PPA = 6
# symbols stacked per array pass of the NWO statistic; bounds its peak
_NWO_SYMBOL_CHUNK = 3


def _lattice_systems(cfg: ExperimentConfig, k_max: int) -> list:
    """The plus and minus dyadic systems of every lattice shift, in the
    order of `lattice_shift_sample`; the first pair is unshifted.

    They do not depend on the symbol, so a study builds them once and
    every symbol's statistics read them."""
    return [
        [build_system(half, shift, cfg.box, (cfg.k_min, k_max)) for half in ("plus", "minus")]
        for shift in lattice_shift_sample(cfg.n, cfg.num_lattice_shifts)
    ]


def _energy_statistic(fields: list, cfg: ExperimentConfig, systems: list, labels: list) -> list:
    """Per sampled field, in order: the dyadic energy sum of the plus and
    minus systems of a lattice shift, maximized over the shifts.  The
    fields share one grid, so each (system, generation) is labelled once
    for all of them: `labels` holds each system's `generation_labels`,
    nested as `systems`."""
    values = np.stack([fld.values for fld in fields])
    best = np.zeros(len(fields))
    for pair, pair_labels in zip(systems, labels):
        total = np.zeros(len(fields))
        for system, system_labels in zip(pair, pair_labels):
            total += dyadic_energy_sums(values, system_labels, system, cfg.p)
        best = np.maximum(best, total)
    return best.tolist()


class _WitnessTable(NamedTuple):
    """One generation's witness geometry on a reference cube."""

    centre: np.ndarray  # the reference cube's centre
    y: np.ndarray  # micro-points of its witness ball, (N_y, n)
    wy: float  # their quadrature weight
    direct: DirectTerm  # between its children's micro-points and y


def _witness_tables(cfg: ExperimentConfig, params: KernelParams, gens) -> dict:
    """(half, k) -> the `_WitnessTable` of generation k in that half.

    Every cube of a generation has the same witness offset, in every
    lattice, so its witness micro-grid is the reference one translated by
    the cube's centre, and x - y, hence the direct term of the kernel, is
    the same for every cube.  The reference cube lies at the origin, at
    lattice index 0 or -1 on the last axis.  For ell < n both halves share
    one entry; for ell = n the witness offset flips with the half."""
    tables = {}
    for half in ("plus", "minus"):
        for k in gens:
            if half == "minus" and params.ell < params.n:
                tables[half, k] = tables["plus", k]
                continue
            Q = Cube(k, (0,) * (cfg.n - 1) + (0 if half == "plus" else -1,), (0.0,) * cfg.n, half)
            y, wy = ball_microgrid(sign_witness(Q, params, cfg.witness_A)[1], _NWO_BALL_PPA)
            children = [
                Cube(k + 1, tuple(2 * m + c for m, c in zip(Q.m, corner)), Q.shift, half).box
                for corner in itertools.product((0, 1), repeat=cfg.n)
            ]
            x = midpoint_nodes(np.array(children), _NWO_CHILD_PPA).reshape(-1, cfg.n)
            tables[half, k] = _WitnessTable(Q.center, y, wy, riesz_direct_term(params, x[:, None, :], y[None, :, :]))
    return tables


def _nwo_statistic(family: list, cfg: ExperimentConfig, systems: list) -> list:
    """Per symbol of `family`, in family order: the sum over halves,
    generations and admissible cubes of (sum_children |<T e, f>|)^p with
    e, f the normalized indicators built from the witness-ball median
    split, maximized over the lattice shift sample; each shifted system
    obeys the same bound, and the sup washes out symbol-to-lattice
    alignment.  Regions are disjoint and separated, so plain midpoint
    micro-quadrature of the double integral is accurate.

    Every lattice shift of `systems` must hold an admissible cube.  The
    windows `lower_bound_audit` accepts do: they hold cubes in two
    generations, and a generation with a cube in one shift leaves the
    next one a cube in every shift.

    Evaluated per (shift, half, generation) block, over all the cubes of
    the generation and all the symbols at once.  The geometry does not
    depend on the symbol, so it is built once per generation for the whole
    family (`build_system` admits only cubes inside their half): the
    generation's reference witness micro-grid (`_witness_tables`) is translated by the
    cube centres to every cube's witness ball, giving one (cubes, N_y, n)
    array, and the children's `midpoint_nodes` form one
    (cubes, 2^n ppa^n, n) array.  x - y is the same for every cube, so the
    direct term of the kernel is the table's, shared by all the lattices.
    The reflected term depends on a cube only through its row, which fixes
    x_n + y_n: the generation's recorded index block puts one cube of each
    row first, so one `riesz_kernel_from_direct` call covers them, shape
    (rows, 2^n ppa^n, N_y).

    Each symbol is called once per shift, on the micro-points of all the
    shift's blocks, not once per block and side: a call has a fixed cost
    that a block's few hundred points do not amortize, and at N = 32 this
    makes 9 calls per symbol instead of 80.  Per block the symbols are
    stacked on a leading axis, in chunks of `_NWO_SYMBOL_CHUNK` (which
    bounds the peak), with one `median` call for the splits of all the
    cubes.  With alpha the split, dx = b(x) - alpha and dy = b(y) - alpha,
    each mask pair (e, f) gives

        <T e, f> = sum_x dx e (K f)_x - sum_x e (K (dy f))_x,

    and one matmul of the row kernels against the (symbols, cubes, N_y,
    4) right-hand side [f_1, dy f_1, f_2, dy f_2] gives all four
    products.  The two terms cannot cancel: K keeps one sign on the
    witness ball, and dx e and dy f have opposite fixed signs on each
    mask pair.  Each symbol sums its own terms in cube order, so its
    value does not depend on the family it comes with."""
    params = KernelParams(cfg.n, cfg.ell)
    gens = sorted({k for pair in systems for system in pair for k in system.generations()})
    tables = _witness_tables(cfg, params, gens)
    best = [0.0] * len(family)
    for pair in systems:
        blocks, points = [], []
        for system in pair:
            for k in system.generations():
                cubes = system.cubes[k]
                if not cubes:
                    continue
                rows = system.blocks[k][1][-1]
                table = tables[system.half, k]
                boxes = system.subcube_boxes(k, 1)
                # the first child's lower corner is the cube's vertex, bit for bit
                centres = boxes[:, 0, :, 0] + 0.5 * cubes[0].side
                y_nodes = table.y + (centres - table.centre)[:, None, :]
                x_nodes = midpoint_nodes(boxes, _NWO_CHILD_PPA).reshape(len(cubes), -1, cfg.n)
                points += [y_nodes.reshape(-1, cfg.n), x_nodes.reshape(-1, cfg.n)]
                # the kernel reads the normal coordinates of the first cube of each row
                blocks.append((system, k, y_nodes[:rows, :, -1].copy(), x_nodes[:rows, :, -1].copy()))
        # each symbol is called once per shift, on the micro-points of all
        # the shift's blocks; its values split back into the blocks' sides
        bounds = np.cumsum([len(side) for side in points])[:-1]
        points = np.concatenate(points)
        values = np.split(np.stack([sym(points) for sym in family]), bounds, axis=1)
        del points
        totals = [0.0] * len(family)
        for (system, k, yn, xn), by_all, bx_all in zip(blocks, values[0::2], values[1::2]):
            cubes, rows, table = system.cubes[k], len(yn), tables[system.half, k]
            by_all = by_all.reshape(len(family), len(cubes), -1)
            bx_all = bx_all.reshape(len(family), len(cubes), -1)
            kv = riesz_kernel_from_direct(params, table.direct, xn[:, :, None], yn[:, None, :], "zero")
            wx = (2.0 ** (-(k + 1)) / _NWO_CHILD_PPA) ** cfg.n
            for s0 in range(0, len(family), _NWO_SYMBOL_CHUNK):
                by, bx = by_all[s0 : s0 + _NWO_SYMBOL_CHUNK], bx_all[s0 : s0 + _NWO_SYMBOL_CHUNK]
                alpha = median(by)[..., None]
                dx, dy = bx - alpha, by - alpha
                f_above, f_below = by >= alpha, by <= alpha
                rhs = np.stack([f_above, dy * f_above, f_below, dy * f_below], axis=-1)
                # axes: symbol, cube, child micro-point, product
                kf = np.matmul(kv, rhs.reshape(len(by), -1, rows, len(table.y), 4)).reshape(bx.shape + (4,))
                inner = []
                for e_mask, j in ((bx <= alpha, 0), (bx > alpha, 2)):
                    terms = e_mask * (dx * kf[..., j] - kf[..., j + 1])
                    raw = terms.reshape(len(by), len(cubes), 2**cfg.n, -1).sum(axis=-1) * wx * table.wy
                    inner.append(np.sum(np.abs(raw) / cubes[0].volume, axis=-1))
                for s, (above, below) in enumerate(zip(inner[0].tolist(), inner[1].tolist()), start=s0):
                    for a, b in zip(above, below):
                        totals[s] += a**cfg.p + b**cfg.p
        best = [max(b, t) for b, t in zip(best, totals)]
    return best


def _tail_statistic(fields: list, cfg: ExperimentConfig, pair: list, labels: list) -> list:
    """Per sampled field, in order: the sum over halves and generations
    of 2^{nk} ||b - E_k(b)||_p^p, the L^p distance to the generation-k
    averages, over covered nodes of the unshifted plus and minus systems
    `pair`.  Each (system, generation) is labelled once for all the
    fields, which share one grid: `labels` holds each system's
    `generation_labels`."""
    values = np.stack([fld.values for fld in fields])
    grid = fields[0].grid
    total = np.zeros(len(fields))
    for system, system_labels in zip(pair, labels):
        for k, lab in zip(system.generations(), system_labels):
            ek = labelled_expectation(values, lab, len(system.cubes[k]))
            # compress keeps each field's covered nodes contiguous, so its
            # sum runs as a one-field call's does
            diff = np.abs(np.compress(lab >= 0, values - ek, axis=-1)) ** cfg.p
            total += 2.0 ** (cfg.n * k) * diff.sum(axis=-1) * grid.weight
    return total.tolist()


def _double_integral_statistic(fields: list, cfg: ExperimentConfig) -> list:
    """Per sampled field, in order: the discrete double integral of
    |b(x)-b(y)|^p / |x-y|^{2n} over each half-space separately
    (off-diagonal pairs), summed over the half's support core S
    (`support_core`).  Off S x off S both nodes carry the same value, so
    those terms are exactly zero; the integrand is symmetric bit for bit
    (negating a difference changes neither its square nor its absolute
    value), so the off-core x core pairs give the transposed core x
    off-core terms.  Each half therefore adds the core rows' terms
    (s x m, +inf distance at each row's own node) once, and their
    off-core columns once more; an empty core adds exactly 0.0."""
    grid = fields[0].grid
    totals = [0.0] * len(fields)
    for idx in grid.half_indices():
        x = grid.nodes[idx]
        for i, fld in enumerate(fields):
            b = fld.values[idx]
            core = support_core(b)
            d2 = squared_distance(x[core][:, None, :], x[None, :, :])
            d2[np.arange(len(d2)), np.flatnonzero(core)] = np.inf
            terms = abs_power(b[core][:, None] - b[None, :], cfg.p) / d2**cfg.n
            totals[i] += float(terms.sum() + terms[:, ~core].sum()) * grid.weight**2
    return totals


def _oscillation_partials(family: list, cfg: ExperimentConfig, systems: list) -> list:
    """Per symbol of `family`, in family order, a dict K -> the cumulative
    dyadic oscillation statistic up to top generation K: sup over lattice
    shifts of (sum_{k<=K} sum_Q osc_Q^n)^{1/n}, where osc_Q is the mean
    absolute gap between generation-(k+2) sub-averages.  `systems` are
    the lattice systems over generations k_min..stat_k_max.

    Per (shift, half, generation), the `midpoint_nodes` of every
    grandchild are built once for the family; each symbol then makes one
    call on them, takes block means per grandchild (`box_midpoint_mean`
    on each grandchild, bit for bit) and one broadcast gap mean per cube,
    and sums its osc_Q^n in cube order, as a one-symbol call does."""
    gens = range(cfg.k_min, cfg.stat_k_max + 1)
    per_shift = np.zeros((len(family), len(systems), len(gens)))
    for si, pair in enumerate(systems):
        for ki, k in enumerate(gens):
            totals = [0.0] * len(family)
            for system in pair:
                if not system.cubes[k]:
                    continue
                nodes = midpoint_nodes(system.subcube_boxes(k, 2), _OSCILLATION_PPA)
                for s, sym in enumerate(family):
                    means = sym(nodes.reshape(-1, cfg.n)).reshape(nodes.shape[:3]).mean(axis=-1)
                    gaps = np.abs(means[:, :, None] - means[:, None, :])
                    for osc in gaps.reshape(len(nodes), -1).mean(axis=-1).tolist():
                        totals[s] += osc**cfg.n
            per_shift[:, si, ki] = totals
    return [
        {k: float(np.max(np.sum(sums[:, : ki + 1], axis=1)) ** (1.0 / cfg.n)) for ki, k in enumerate(gens)}
        for sums in per_shift
    ]


# ---------------------------------------------------------------------------
# studies


def _commutator_spectrum(sym: Symbol, ell: int, grid, p: float):
    op = assemble_commutator(sym, ell, grid)
    spec = singular_values(op)
    return op, spec, schatten_norm(spec, p)


def ratio_study(cfg: ExperimentConfig) -> Report:
    """Schatten norm of the commutator vs Besov norm of the symbol across
    the refinement ladder; summary reports the family ratio spread at the
    largest N and the per-symbol drift over the last refinement step."""
    if cfg.p <= cfg.n:
        raise ValueError(f"ratio study needs p > n, got p={cfg.p}, n={cfg.n}")
    params = BesovParams(cfg.n / cfg.p, cfg.p, cfg.p)
    # clamp the t window to the coarsest ladder grid's resolution floor so
    # every N integrates the same truncated functional; otherwise the
    # refinement drift would mostly measure the widening window.  The
    # ladder is strictly increasing, so the coarsest grid is the first
    floor = resolution_floor(make_grid(cfg.n, cfg.box, cfg.grid_sizes[0]))
    t_grid = default_time_grid(max(cfg.t_min, floor), cfg.t_max, cfg.t_per_decade)
    family = symbol_family(cfg.family, cfg.n)
    rows = []
    ratios = {}
    spectra = {}
    for N in cfg.grid_sizes:
        grid = make_grid(cfg.n, cfg.box, N)
        shift_grid = default_shift_grid(grid, cfg.shift_per_decade, cfg.shift_angles)
        heat = besov_heat_norm(family, params, grid, t_grid)
        ext = besov_neumann_norm(family, params, grid, shift_grid)
        for sym, b_heat, b_ext in zip(family, heat, ext):
            spec, s_norm = _commutator_spectrum(sym, cfg.ell, grid, cfg.p)[1:]
            if N == cfg.grid_sizes[-1]:
                spectra[f"ratio_{sym.name}_N{N}"] = (spec, None)
            degenerate = sym.kind == "perhalf-constant"
            if degenerate:
                note = "degenerate control; excluded from summary"
            elif b_heat == 0.0:
                # symbol support falls between the nodes of this grid
                note = "unresolved at this N; excluded from summary"
            else:
                note = ""
            ratio = math.nan if note else s_norm / b_heat
            rows.append(
                ReportRow(
                    "ratio",
                    sym.name,
                    N,
                    s_norm,
                    b_heat,
                    ratio,
                    aux={"besov_ext": b_ext, "weak_schatten": weak_schatten_norm(spec, cfg.p)},
                    note=note,
                )
            )
            if not note:
                ratios.setdefault(sym.name, {})[N] = ratio
    n_top = cfg.grid_sizes[-1]
    top = [r[n_top] for r in ratios.values() if n_top in r]
    if not top:
        raise ValueError(
            f"ratio study has no summary: no non-control symbol of family {cfg.family!r} "
            f"is resolved at the top grid size N={n_top}"
        )
    drift = {}
    if len(cfg.grid_sizes) >= 2:
        n_prev = cfg.grid_sizes[-2]
        drift = {
            name: abs(r[n_top] / r[n_prev] - 1.0)
            for name, r in ratios.items()
            if n_top in r and n_prev in r
        }
    spread = max(top) / min(top)
    summary = {
        "min_ratio": min(top),
        "max_ratio": max(top),
        "spread": spread,
        "max_drift": max(drift.values()) if drift else 0.0,
        "spread_limit": cfg.ratio_spread_max,
        "drift_limit": cfg.ratio_drift_max,
    }
    passed = spread <= cfg.ratio_spread_max and summary["max_drift"] < cfg.ratio_drift_max
    report = Report("ratio", rows, summary, passed)
    report.spectra = spectra
    return report


def divergence_study(cfg: ExperimentConfig) -> Report:
    """Endpoint growth study at p = n: the commutator Schatten norm of a
    non-constant symbol should climb with refinement (no plateau), the
    per-half-constant controls stay at exactly zero, and the dyadic
    oscillation statistic is reported per top generation.

    The Besov column is not computed here: the endpoint smoothness index
    n/p = 1 falls outside the (0, 1) range of the norm definitions.
    """
    if cfg.p != cfg.n:
        raise ValueError(f"divergence study needs p = n, got p={cfg.p}, n={cfg.n}")
    if len(cfg.grid_sizes) < 2:
        raise ValueError(f"divergence study needs at least two grid_sizes to measure growth, got {cfg.grid_sizes}")
    family = symbol_family(cfg.family, cfg.n)
    spectra = {}
    norms = {}
    for N in cfg.grid_sizes:
        grid = make_grid(cfg.n, cfg.box, N)
        for sym in family:
            spec, norms[sym.name, N] = _commutator_spectrum(sym, cfg.ell, grid, cfg.p)[1:]
            spectra[f"divergence_{sym.name}_N{N}"] = (spec, None)
    oscillation = _oscillation_partials(family, cfg, _lattice_systems(cfg, cfg.stat_k_max))
    rows = []
    growth_ok = True
    controls_ok = True
    for sym, partials in zip(family, oscillation):
        values = [norms[sym.name, N] for N in cfg.grid_sizes]
        for N, s_norm in zip(cfg.grid_sizes, values):
            rows.append(
                ReportRow(
                    "divergence",
                    sym.name,
                    N,
                    s_norm,
                    math.nan,
                    math.nan,
                    note="besov skipped: endpoint alpha = n/p = 1 outside (0,1)",
                )
            )
        if sym.kind == "perhalf-constant":
            controls_ok &= all(v == 0.0 for v in values)
        else:
            increasing = all(b > a for a, b in zip(values, values[1:]))
            growth_ok &= increasing and values[-1] >= cfg.divergence_growth_min * values[0]
        for K, stat in partials.items():
            rows.append(
                ReportRow(
                    "divergence-dyadic",
                    sym.name,
                    0,
                    math.nan,
                    math.nan,
                    math.nan,
                    aux={"top_generation": K, "oscillation_lN": stat},
                )
            )
    summary = {"growth_min": cfg.divergence_growth_min, "growth_ok": growth_ok, "controls_zero": controls_ok}
    return Report("divergence", rows, summary, growth_ok and controls_ok, spectra)


def lower_bound_audit(cfg: ExperimentConfig) -> Report:
    """Audits the lower-bound statistics against the commutator Schatten
    norm per symbol, on the config's first grid size: the shifted-lattice
    energy sum, the witness-ball NWO sum, the generation-weighted L^p
    tails, and the same-half double integral.  Each statistic is
    compared at the norm level, statistic^{1/p} <= C * S^p norm, against
    the calibrated constant from the config; for the energy and NWO
    statistics the per-symbol C must additionally agree across the
    non-degenerate family to within the stability band
    (max/min <= 1.25/0.75)."""
    if cfg.p <= cfg.n:
        raise ValueError(f"lower-bound audit needs p > n, got p={cfg.p}, n={cfg.n}")
    N = cfg.grid_sizes[0]
    grid = make_grid(cfg.n, cfg.box, N)
    k_max = min(finest_resolved_generation(grid), cfg.stat_k_max)
    if k_max <= cfg.k_min:
        window = f"k_min..min(finest_resolved_generation, stat_k_max) = {cfg.k_min}..{k_max}"
        raise ValueError(f"lower-bound audit needs at least two generations, got {window} at N={N}")
    family = symbol_family(cfg.family, cfg.n)
    rows = []
    passed = True
    limits = {
        "energy": cfg.audit_C_energy,
        "nwo": cfg.audit_C_nwo,
        "tail": cfg.audit_C_tail,
        "double": cfg.audit_C_double,
    }
    constants = {name: [] for name in limits}
    systems = _lattice_systems(cfg, k_max)
    # a generation whose cubes are all taller than a half holds none, and
    # the energy spread of a one-generation window is infinite for any C
    held = [k for k in range(cfg.k_min, k_max + 1) if any(system.cubes[k] for pair in systems for system in pair)]
    if len(held) < 2:
        raise ValueError(
            f"lower-bound audit needs at least two generations with an admissible cube, got {held} "
            f"in the window {cfg.k_min}..{k_max} at N={N} on the box {cfg.box}"
        )
    norms = [_commutator_spectrum(sym, cfg.ell, grid, cfg.p)[2] for sym in family]
    fields = [SampledField(grid, sym(grid.nodes)) for sym in family]
    # every statistic takes the whole family and builds its
    # symbol-independent geometry once per audit; the energy and tail
    # statistics share one labelling of each (system, generation)
    labels = [[generation_labels(grid, system) for system in pair] for pair in systems]
    energy = _energy_statistic(fields, cfg, systems, labels)
    tail = _tail_statistic(fields, cfg, systems[0], labels[0])
    del labels  # the NWO statistic's arrays take their place
    nwo = _nwo_statistic(family, cfg, systems)
    double = _double_integral_statistic(fields, cfg)
    for sym, s_norm, *values in zip(family, norms, energy, nwo, tail, double):
        stats = dict(zip(limits, values))
        degenerate = sym.kind == "perhalf-constant"
        for name, value in stats.items():
            level = value ** (1.0 / cfg.p)
            if degenerate:
                ok = value == 0.0
                c_sym = math.nan
            else:
                c_sym = level / s_norm
                constants[name].append(c_sym)
                ok = level <= limits[name] * s_norm
            passed &= ok
            rows.append(
                ReportRow(
                    "lower-audit",
                    sym.name,
                    N,
                    s_norm,
                    math.nan,
                    c_sym,
                    aux={"statistic": name, "value": value, "limit": limits[name]},
                    note="" if ok else "exceeds calibrated constant",
                )
            )
    summary = dict(limits)
    band = 1.25 / 0.75
    summary["stability_band"] = band
    for name in ("energy", "nwo"):
        cs = constants[name]
        spread = max(cs) / min(cs) if cs and min(cs) > 0.0 else math.inf
        summary[f"{name}_C_spread"] = spread
        passed &= spread <= band
    summary["passed"] = passed
    return Report("lower-audit", rows, summary, passed)


def _kernel_vanishes(params: KernelParams, grid) -> bool:
    """Whether K_ell(x, y) == 0.0 on the cross-half pairs of the grid,
    checked on one tangential column per box edge.

    The kernel depends on x' only through x' - y'.  The x nodes whose
    tangential coordinates each sit at the first or last grid column
    (2^{n-1} corners, each with every normal coordinate of its half),
    paired with every node of the other half, meet every index offset
    x' - y' with every pair of normal coordinates: 2^{n-1} (N/2) (N^n/2)
    pairs per direction instead of (N^n/2)^2.  A kernel whose gate fails
    only at some x', and not through x' - y', would be missed.  Evaluated
    in `row_blocks` chunks, stopping at the first non-zero chunk."""
    edge = np.ones(len(grid.nodes), dtype=bool)
    for j, axis in enumerate(grid.axes[:-1]):
        edge &= (grid.nodes[:, j] == axis[0]) | (grid.nodes[:, j] == axis[-1])
    for x_half, y_half in ((grid.mask_plus, grid.mask_minus), (grid.mask_minus, grid.mask_plus)):
        x, y = grid.nodes[edge & x_half], grid.nodes[y_half]
        for i0, i1 in row_blocks(len(x), len(y)):
            if not np.all(riesz_kernel(params, x[i0:i1, None, :], y[None, :, :]) == 0.0):
                return False
    return True


def upper_bound_audit(cfg: ExperimentConfig) -> Report:
    """Checks, on the config's first grid size, weak-Schatten(commutator)
    <= kernel-factorization bound times the configured slack, plus the
    exact half-space split of the mixed weak norm: the Riesz kernel is
    exactly 0.0 on every cross-half pair of the grid, and the full mixed
    norm is at most the sum of the two same-half ones."""
    if cfg.p <= max(cfg.n, 2):
        raise ValueError(f"upper-bound audit needs p > max(n, 2), got p={cfg.p}, n={cfg.n}")
    N = cfg.grid_sizes[0]
    rows = []
    spectra = {}
    passed = True
    # assembly never evaluates cross-half pairs, so the gate is checked
    # on the kernel itself, once for the grid all symbols share
    grid = make_grid(cfg.n, cfg.box, N)
    cross_zero = _kernel_vanishes(KernelParams(cfg.n, cfg.ell), grid)
    for sym in symbol_family(cfg.family, cfg.n):
        op, spec, s_norm = _commutator_spectrum(sym, cfg.ell, grid, cfg.p)
        weak = weak_schatten_norm(spec, cfg.p)
        # both halves of the Russo bound, as russo_bound computes them on
        # the dense blocks, come from the core strips, bit for bit; the
        # same-half norms reuse the direct per-block column norms
        inner, inner_adjoint = operator_column_norms(op, cfg.p)
        k_full, k_adjoint = (weak_outer_norm(np.concatenate(g), cfg.p, op.weight) for g in (inner, inner_adjoint))
        bound = float(np.sqrt(k_full * k_adjoint))
        spectra[f"upper_{sym.name}_N{N}"] = (
            spec,
            {"p": cfg.p, "schatten": s_norm, "weak_schatten": weak, "russo_bound": bound},
        )
        k_plus, k_minus = (weak_outer_norm(g, cfg.p, op.weight) for g in inner)
        ok = weak <= bound * cfg.russo_slack
        split_ok = k_full <= k_plus + k_minus + 1e-12 and cross_zero
        passed &= ok and split_ok
        rows.append(
            ReportRow(
                "upper-audit",
                sym.name,
                N,
                weak,
                math.nan,
                math.nan if bound == 0.0 else weak / bound,
                aux={
                    "russo_bound": bound,
                    "slack": cfg.russo_slack,
                    "mixed_full": k_full,
                    "mixed_plus": k_plus,
                    "mixed_minus": k_minus,
                },
                note="" if (ok and split_ok) else "bound violated",
            )
        )
    return Report("upper-audit", rows, {"slack": cfg.russo_slack, "passed": passed}, passed, spectra)


# ---------------------------------------------------------------------------
# verification suite


def _check(name, measured, tolerance, ok, status=None) -> ReportRow:
    """One invariant check as a row: its status is the note, and its
    measurement, finite or not, is in `aux`."""
    status = status if status is not None else ("pass" if ok else "fail")
    aux = {"measured": float(measured), "tolerance": float(tolerance)}
    return ReportRow("verify", name, 0, math.nan, math.nan, math.nan, aux=aux, note=status)


def sign_witness_audit(cfg: ExperimentConfig, ell: int, count: int = 50, rng=None):
    """Sample admissible cubes in both halves and check the witness-ball
    kernel values: constant sign, and magnitude >= certified bound.
    Returns the counts of sign and magnitude failures and the worst
    magnitude margin; the caller decides which to assert (the magnitude
    is provable for tangential ell; the normal direction degenerates on
    boundary-adjacent cubes and is reported only)."""
    rng = np.random.default_rng(0) if rng is None else rng
    params = KernelParams(cfg.n, ell)
    sign_bad = 0
    magnitude_bad = 0
    margin = math.inf
    for half in ("plus", "minus"):
        system = build_system(half, np.zeros(cfg.n), cfg.box, (cfg.k_min, cfg.stat_k_max))
        pool = [Q for k in system.generations() for Q in system.cubes[k]]
        idx = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
        for Q in (pool[i] for i in idx):
            y0, ball, bound = sign_witness(Q, params, cfg.witness_A)
            y_nodes, _ = ball_microgrid(ball, 6)
            x_nodes = midpoint_nodes(Q.box, 5)
            kv = riesz_kernel(params, x_nodes[:, None, :], y_nodes[None, :, :], singular="zero")
            if np.any(kv == 0.0) or np.min(kv) < 0.0 < np.max(kv):
                sign_bad += 1
            low = float(np.min(np.abs(kv)))
            margin = min(margin, low / bound)
            if low < bound:
                magnitude_bad += 1
    return sign_bad, magnitude_bad, margin


def verify_suite(cfg: ExperimentConfig) -> Report:
    """Machine-readable invariant checks across all modules.

    Failures are report content, not exceptions; the CLI exit code is
    derived from the rows.  Each check is one row, with its status
    ("pass", "fail" or "info") as the note and its measurement, which may
    be infinite, in `aux`; `write_invariants_csv` writes them.  Rows with
    status "info" record measurements that are reported but
    intentionally not asserted.
    """
    n = cfg.n
    # the even-extension check mirrors this grid across x_n = 0, so a box
    # that is not symmetric there is refused before any check runs
    grid = make_grid(n, cfg.box, 48)
    try:
        mirror = grid.mirror_index()
    except ValueError:
        lo, hi = cfg.box[-1]
        raise ValueError(
            f"verify needs box symmetric across x_n = 0 on its last axis, got ({lo!r}, {hi!r})"
        ) from None
    rng = np.random.default_rng(cfg.seed)
    checks = []
    params = KernelParams(n, cfg.ell)

    # kernel gating on cross-half pairs
    x = rng.normal(size=(2000, n))
    x[:, -1] = np.abs(x[:, -1]) + 1e-3
    y = rng.normal(size=(2000, n))
    y[:, -1] = -np.abs(y[:, -1]) - 1e-3
    gate_max = float(np.max(np.abs(riesz_kernel(params, x, y))))
    checks.append(_check("riesz_cross_half_zero", gate_max, 0.0, gate_max == 0.0))
    heat_gate = float(np.max(np.abs(heat_kernel_neumann(0.3, x, y))))
    checks.append(_check("heat_cross_half_zero", heat_gate, 0.0, heat_gate == 0.0))

    # semigroup identities on a grid sized for t+s
    ones = SampledField(grid, np.ones(len(grid.nodes)))
    t, s = 0.01, 0.02
    interior = np.all(np.abs(grid.nodes) < 1.0, axis=1)
    cons = apply_semigroup(ones, t).values
    cons_err = float(np.max(np.abs(cons[interior] - 1.0)))
    checks.append(_check("semigroup_conservation_interior", cons_err, 1e-6, cons_err <= 1e-6))

    bump = symbol_family("default", n)[1]
    fld = SampledField(grid, bump(grid.nodes))
    comp = apply_semigroup(apply_semigroup(fld, t), s).values
    once = apply_semigroup(fld, t + s).values
    comp_err = float(np.max(np.abs(comp - once)))
    checks.append(_check("semigroup_composition", comp_err, 1e-6, comp_err <= 1e-6))

    plus_vals = np.where(grid.mask_plus, fld.values, 0.0)
    even_vals = plus_vals + plus_vals[mirror]
    route_a = apply_semigroup(SampledField(grid, plus_vals), t).values
    route_b = apply_semigroup(SampledField(grid, even_vals), t, kernel="full").values
    ext_err = float(np.max(np.abs(route_a - route_b)[grid.mask_plus & interior]))
    checks.append(_check("semigroup_even_extension", ext_err, 1e-6, ext_err <= 1e-6))

    try:
        apply_semigroup(ones, -1.0)
        checks.append(_check("semigroup_rejects_nonpositive_t", 0.0, 0.0, False))
    except ValueError:
        checks.append(_check("semigroup_rejects_nonpositive_t", 0.0, 0.0, True))

    # dyadic and Haar machinery; range reaches generation 2 so martingale
    # differences exist for the sampled generation-0/1 cubes below
    system = build_system("plus", np.zeros(n), cfg.box, (cfg.k_min, 2))
    Q = system.cubes[0][0]
    basis = haar_basis(Q)
    ppa = 8
    nodes, w = midpoint_nodes(Q.box, ppa), (Q.side / ppa) ** n
    mat = np.stack([h.evaluate(nodes) for h in basis] + [np.full(len(nodes), Q.volume**-0.5)])
    gram = mat @ mat.T * w
    gram_err = float(np.max(np.abs(gram - np.eye(len(mat)))))
    checks.append(_check("haar_gram_identity", gram_err, 1e-12, gram_err <= 1e-12))

    fine = make_grid(n, cfg.box, 64)
    ffld = SampledField(fine, bump(fine.nodes))
    # tower property: coarse average of a finer average equals the coarse average
    direct = conditional_expectation(ffld, 0, system)
    re = conditional_expectation(conditional_expectation(ffld, 1, system), 0, system)
    mask = np.zeros(len(fine.nodes), dtype=bool)
    for c in system.cubes[0]:
        mask |= nodes_in_cube(fine, c)
    tower_err = float(np.max(np.abs(re.values[mask] - direct.values[mask])))
    checks.append(_check("conditional_expectation_tower", tower_err, 1e-10, tower_err <= 1e-10))

    deltas = {k: martingale_difference(ffld, k, system).values for k in (0, 1)}
    mz = max(
        abs(float(np.mean(deltas[0][nodes_in_cube(fine, c)]))) for c in system.cubes[0]
    )
    checks.append(_check("martingale_mean_zero", mz, 1e-12, mz <= 1e-12))

    # spectral oracles
    m = rng.normal(size=(40, 40))
    spec = singular_values(m)
    fro = float(np.linalg.norm(m))
    s2_err = abs(schatten_norm(spec, 2.0) - fro)
    checks.append(_check("schatten2_frobenius", s2_err, 1e-10, s2_err <= 1e-10))
    weak_ok = weak_schatten_norm(spec, cfg.p) <= schatten_norm(spec, cfg.p)
    checks.append(_check("weak_le_strong", 0.0, 0.0, weak_ok))
    # sum s_k^4 = ||T^T T||_F^2 on assembled commutators, through the
    # eigvalsh branch (ell = 1) and the block-SVD branch (ell = n)
    odd = next(sym for sym in symbol_family("default", n) if sym.name == "odd_bump")
    small = make_grid(n, cfg.box, 16)
    s4_err = 0.0
    for ell in sorted({1, n}):
        op = assemble_commutator(odd, ell, small)
        s4 = float(np.sum(singular_values(op).values ** 4))
        gram = op.matrix.T @ op.matrix
        fro2 = float(np.sum(gram * gram))
        s4_err = max(s4_err, abs(s4 - fro2) / fro2)
    checks.append(_check("schatten4_trace_identity", s4_err, 1e-12, s4_err <= 1e-12))
    g = rng.normal(size=30)
    h = rng.normal(size=30)
    pprime = cfg.p / (cfg.p - 1.0)
    sep = mixed_norm([np.abs(np.outer(g, h))], cfg.p, 1.0, "strong")
    sep_expect = float(np.sum(np.abs(g) ** cfg.p) ** (1 / cfg.p) * np.sum(np.abs(h) ** pprime) ** (1 / pprime))
    checks.append(_check("mixed_norm_separable", abs(sep - sep_expect), 1e-10, abs(sep - sep_expect) <= 1e-10))

    # Haar coefficient bound on sampled cubes
    worst = 0.0
    cube_pool = [c for c in system.cubes[0] + system.cubes[1]]
    sel = rng.choice(len(cube_pool), size=min(100, len(cube_pool)), replace=True)
    bound_const = (2.0**n - 1.0) ** cfg.p
    for ci in sel:
        c = cube_pool[ci]
        cmask = nodes_in_cube(fine, c)
        dvals = deltas[c.k][cmask]
        lhs = float(np.mean(np.abs(dvals) ** cfg.p))
        coeffs = [
            abs(float(np.sum(ffld.values[cmask] * hf.evaluate(fine.nodes[cmask]) * fine.weight)))
            for hf in haar_basis(c)
        ]
        rhs = bound_const * (max(coeffs) * c.volume**-0.5) ** cfg.p
        if rhs > 0 or lhs > 0:
            worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
    checks.append(_check("haar_coefficient_bound", worst, 1.0, worst <= 1.0))

    # sign witness: tangential direction asserted, normal reported
    sign_bad, mag_bad, margin = sign_witness_audit(cfg, ell=1, rng=rng)
    checks.append(_check("witness_sign_constant_ell1", float(sign_bad), 0.0, sign_bad == 0))
    checks.append(_check("witness_magnitude_ell1", float(mag_bad), 0.0, mag_bad == 0))
    sign_bad_n, mag_bad_n, margin_n = sign_witness_audit(cfg, ell=n, rng=rng)
    checks.append(_check("witness_sign_constant_elln", float(sign_bad_n), 0.0, sign_bad_n == 0))
    checks.append(
        _check("witness_magnitude_elln_info", float(mag_bad_n), 0.0, True, status="info")
    )

    # CZ size/smoothness bounds on random same-half triples
    worst_ratio = 0.0
    size_ok_all = True
    for _ in range(200):
        base = rng.normal(size=n)
        base[-1] = abs(base[-1]) + 0.05
        yq = rng.normal(size=n)
        yq[-1] = abs(yq[-1]) + 0.05
        d = np.linalg.norm(base - yq)
        if d < 1e-3:
            continue
        xp = base + rng.normal(size=n) * d / (4 * math.sqrt(n))
        xp[-1] = abs(xp[-1]) + 1e-6
        if np.linalg.norm(base - xp) > d / 2:
            continue
        ok, ratio = cz_bounds_check(params, base, xp, yq)
        size_ok_all &= ok
        worst_ratio = max(worst_ratio, ratio)
    checks.append(_check("cz_size_bound", 0.0 if size_ok_all else 1.0, 0.0, size_ok_all))
    checks.append(_check("cz_smoothness_ratio_info", worst_ratio, 0.0, True, status="info"))

    passed = all(c.note != "fail" for c in checks)
    return Report("verify", checks, {"passed": passed}, passed)


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x) -> str:
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    return format(xf, ".17g")


def write_rows_csv(path, rows):
    lines = ["experiment,symbol,N,schatten,besov,ratio,aux,note"]
    for r in rows:
        aux = ";".join(f"{k}={_fmt(v) if isinstance(v, (int, float)) else v}" for k, v in sorted(r.aux.items()))
        lines.append(
            ",".join(
                [r.experiment, r.symbol, str(r.N), _fmt(r.schatten), _fmt(r.besov), _fmt(r.ratio), aux, r.note]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_spectrum_csv(path, spectrum, summary: dict = None):
    lines = ["k,s_k"]
    for i, s in enumerate(spectrum.values, start=1):
        lines.append(f"{i},{_fmt(s)}")
    if summary:
        lines.append("p,schatten,weak_schatten,russo_bound")
        lines.append(
            ",".join(
                _fmt(summary.get(k, math.nan))
                for k in ("p", "schatten", "weak_schatten", "russo_bound")
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_invariants_csv(path, report: Report):
    lines = ["name,status,measured,tolerance"]
    for c in report.rows:
        lines.append(f"{c.symbol},{c.note},{_fmt(c.aux['measured'])},{_fmt(c.aux['tolerance'])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
