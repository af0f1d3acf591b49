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

import numpy as np

from .besov import BesovParams, besov_heat_norm, besov_neumann_norm, default_shift_grid, default_time_grid
from .discretize import (
    Symbol,
    apply_semigroup,
    assemble_commutator,
    assemble_riesz,
    ball_microgrid,
    check_grid,
    make_grid,
)
from .dyadic import (
    SampledField,
    box_midpoint_mean,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    build_system,
    conditional_expectation,
    dyadic_energy_sum,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    dyadic_energy_sums,
    finest_resolved_generation,
    haar_basis,
    labelled_expectation,
    martingale_difference,
    median,
    midpoint_nodes,
    nodes_in_cube,
)
from .kernels import (
    KernelParams,
    cz_bounds_check,
    heat_kernel_neumann,
    riesz_kernel,
    sign_witness,
    squared_distance,
)
from .kvconfig import read_kv_file, write_kv_file
from .spectra import (
    abs_power,
    column_norms,
    mixed_norm,
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
            raise ValueError("box must have one (lo, hi) pair per dimension")
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
        for name in ("t_per_decade", "shift_per_decade", "shift_angles", "num_lattice_shifts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k_min > self.stat_k_max:
            raise ValueError(f"k_min must be <= stat_k_max, got {self.k_min} > {self.stat_k_max}")
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {self.family!r}")

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
            if value is not None and math.isinf(float(value)):
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


def _mollifier(center, radius, amplitude=1.0):
    """Smooth compactly supported bump exp(1 - 1/(1 - s^2)), s = |x-c|/R."""
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def func(x):
        x = np.asarray(x, dtype=float)
        s2 = squared_distance(x, c) / r**2
        out = np.zeros(s2.shape)
        inside = s2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out

    return func


def _bump_symbol(name, center, radius, amplitude=1.0):
    return Symbol(name=name, func=_mollifier(center, radius, amplitude))


def _odd_bump_symbol(name, center, radius, amplitude=1.0):
    """x_n times a bump centered on the interface: smooth, odd in x_n."""
    func = _mollifier(center, radius, amplitude)

    def oddf(x):
        x = np.asarray(x, dtype=float)
        return x[..., -1] * func(x)

    return Symbol(name=name, func=oddf)


def _halfconst_symbol(name, c_plus, c_minus):
    def func(x):
        x = np.asarray(x, dtype=float)
        return np.where(x[..., -1] >= 0.0, float(c_plus), float(c_minus))

    return Symbol(name=name, func=func, kind="perhalf-constant")


def _default_family(n: int) -> list:
    if n != 2:
        raise ValueError("built-in symbol families are two-dimensional")
    return [
        _bump_symbol("bump_a35", (0.0, 0.5), 0.35),
        _bump_symbol("bump_a45", (0.0, 0.5), 0.45),
        _bump_symbol("bump_b35", (-0.5, 0.45), 0.35),
        _odd_bump_symbol("odd_bump", (0.3, 0.0), 0.7),
        _bump_symbol("bump_minus", (0.2, -0.55), 0.35),
        _halfconst_symbol("halfconst", 1.0, -0.5),
        _halfconst_symbol("uniform", 0.7, 0.7),
    ]


def _divergence_family(n: int) -> list:
    if n != 2:
        raise ValueError("built-in symbol families are two-dimensional")
    parts = [_mollifier((-0.4, 0.45), 0.5), _mollifier((0.35, 0.35), 0.22), _mollifier((0.1, 0.8), 0.1)]
    multi = Symbol(name="multiscale", func=lambda x: sum(part(x) for part in parts))
    return [
        multi,
        # finer feature scales than the ratio-study family on purpose: the
        # endpoint growth window is [grid spacing, feature radius]
        _bump_symbol("bump_sharp", (0.0, 0.4), 0.3),
        _odd_bump_symbol("odd_bump", (0.3, 0.0), 0.45),
        _halfconst_symbol("halfconst", 1.0, -0.5),
        _halfconst_symbol("uniform", 0.7, 0.7),
    ]


_FAMILIES = {"default": _default_family, "divergence": _divergence_family}


def symbol_family(name: str, n: int) -> list:
    if name not in _FAMILIES:
        raise ValueError(f"unknown symbol family {name!r}; have {sorted(_FAMILIES)}")
    return _FAMILIES[name](n)


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


def _lattice_systems(cfg: ExperimentConfig, k_max: int) -> list:
    """The plus and minus dyadic systems of every lattice shift, in the
    order of `lattice_shift_sample`; the first pair is unshifted.

    They do not depend on the symbol, so a study builds them once and
    every symbol's statistics read them."""
    return [
        [build_system(half, shift, cfg.box, (cfg.k_min, k_max)) for half in ("plus", "minus")]
        for shift in lattice_shift_sample(cfg.n, cfg.num_lattice_shifts)
    ]


def _energy_statistic(fields: list, cfg: ExperimentConfig, systems: list) -> list:
    """Per sampled field, in order: the dyadic energy sum of the plus and
    minus systems of a lattice shift, maximized over the shifts.  The
    fields share one grid, so each (system, generation) is labelled once
    for all of them."""
    values = np.stack([fld.values for fld in fields])
    grid = fields[0].grid
    best = np.zeros(len(fields))
    for pair in systems:
        total = np.zeros(len(fields))
        for system in pair:
            total += dyadic_energy_sums(values, grid, system, cfg.p)
        best = np.maximum(best, total)
    return best.tolist()


def _nwo_statistic(family: list, cfg: ExperimentConfig, systems: list, child_ppa: int = 6, ball_ppa: int = 8) -> list:
    """Per symbol of `family`, in family order: the sum over halves,
    generations and admissible cubes of (sum_children |<T e, f>|)^p with
    e, f the normalized indicators built from the witness-ball median
    split, maximized over the lattice shift sample; each shifted system
    obeys the same bound, and the sup washes out symbol-to-lattice
    alignment.  Regions are disjoint and separated, so plain midpoint
    micro-quadrature of the double integral is accurate.

    Evaluated per (shift, half, generation), over all the cubes of the
    generation and all the symbols at once.  The geometry does not depend
    on the symbol, so it is built once per generation for the whole
    family: every cube's witness ball is checked, one micro-grid is built
    for the first ball and translated to every cube's witness centre,
    giving one (cubes, N_y, n) array, and the children's `midpoint_nodes`
    form one (cubes, 2^n, ppa^n, n) array.  Every cube of a generation has
    the same witness offset, so x - y is the same for every cube and the
    kernel depends on a cube only through its row, which fixes x_n + y_n:
    the generation's recorded index block puts one cube of each row first,
    so one kernel call covers them, shape (rows, 2^n ppa^n, N_y).

    Per symbol there is one symbol call per side and one `median` call for
    the splits of all the cubes.  With alpha the split, dx = b(x) - alpha
    and dy = b(y) - alpha, each mask pair (e, f) gives

        <T e, f> = sum_x dx e (K f)_x - sum_x e (K (dy f))_x,

    and one matmul of the row kernels against the (cubes, N_y, 4)
    right-hand side [f_1, dy f_1, f_2, dy f_2] gives all four products.
    The two terms cannot cancel: K keeps one sign on the witness ball, and
    dx e and dy f have opposite fixed signs on each mask pair.  Each
    symbol sums its own terms in cube order, so its value does not depend
    on the family it comes with."""
    params = KernelParams(cfg.n, cfg.ell)
    best = [0.0] * len(family)
    for pair in systems:
        totals = [0.0] * len(family)
        for system in pair:
            for k in system.generations():
                cubes = system.cubes[k]
                if not cubes:
                    continue
                rows = system.blocks[k][1][-1]
                witness = [sign_witness(Q, params, cfg.witness_A) for Q in cubes]
                y_first, wy = ball_microgrid(witness[0][1], ball_ppa)
                centres = np.array([y0 for y0, _, _ in witness])
                y_nodes = y_first + (centres - centres[0])[:, None, :]
                x_nodes = midpoint_nodes(system.subcube_boxes(k, 1), child_ppa)
                kv = riesz_kernel(
                    params, x_nodes[:rows, :, :, None, :], y_nodes[:rows, None, None, :, :], singular="zero"
                ).reshape(rows, -1, len(y_first))
                wx = (2.0 ** (-(k + 1)) / child_ppa) ** cfg.n
                for s, sym in enumerate(family):
                    by = sym(y_nodes.reshape(-1, cfg.n)).reshape(y_nodes.shape[:2])
                    alpha = median(by)[:, None]
                    bx = sym(x_nodes.reshape(-1, cfg.n)).reshape(len(cubes), -1)
                    dx, dy = bx - alpha, by - alpha
                    f_above, f_below = by >= alpha, by <= alpha
                    rhs = np.stack([f_above, dy * f_above, f_below, dy * f_below], axis=-1)
                    # axes: cube, child micro-point, product
                    kf = np.matmul(kv, rhs.reshape(-1, rows, len(y_first), 4)).reshape(len(cubes), -1, 4)
                    inner = []
                    for e_mask, j in ((bx <= alpha, 0), (bx > alpha, 2)):
                        terms = e_mask * (dx * kf[..., j] - kf[..., j + 1])
                        raw = terms.reshape(len(cubes), 2**cfg.n, -1).sum(axis=-1) * wx * wy
                        inner.append(np.sum(np.abs(raw) / cubes[0].volume, axis=1))
                    for a, b in zip(inner[0].tolist(), inner[1].tolist()):
                        totals[s] += a**cfg.p + b**cfg.p
        best = [max(b, t) for b, t in zip(best, totals)]
    return best


def _tail_statistic(fields: list, cfg: ExperimentConfig, pair: list) -> list:
    """Per sampled field, in order: the sum over halves and generations
    of 2^{nk} ||b - E_k(b)||_p^p, the L^p distance to the generation-k
    averages, over covered nodes of the unshifted plus and minus systems
    `pair`.  Each (system, generation) is labelled once for all the
    fields, which share one grid."""
    values = np.stack([fld.values for fld in fields])
    grid = fields[0].grid
    total = np.zeros(len(fields))
    for system in pair:
        for k in system.generations():
            labels, ek = labelled_expectation(values, grid, k, system)
            # compress keeps each field's covered nodes contiguous, so its
            # sum runs as a one-field call's does
            diff = np.abs(np.compress(labels >= 0, values - ek, axis=-1)) ** cfg.p
            total += 2.0 ** (cfg.n * k) * diff.sum(axis=-1) * grid.weight
    return total.tolist()


def _double_integral_statistic(fields: list, cfg: ExperimentConfig) -> list:
    """Per sampled field, in order: the discrete double integral of
    |b(x)-b(y)|^p / |x-y|^{2n} over each half-space separately
    (off-diagonal pairs).  The distances do not depend on the symbol, so
    |x-y|^{2n} is formed once per half for all the fields, which share
    one grid."""
    grid = fields[0].grid
    totals = [0.0] * len(fields)
    for mask in (grid.mask_plus, grid.mask_minus):
        x = grid.nodes[mask]
        d2 = squared_distance(x[:, None, :], x[None, :, :])
        np.fill_diagonal(d2, np.inf)
        den = d2**cfg.n
        for i, fld in enumerate(fields):
            b = fld.values[mask]
            num = abs_power(b[:, None] - b[None, :], cfg.p)
            totals[i] += float(np.sum(num / den)) * grid.weight**2
    return totals


def _oscillation_partials(family: list, cfg: ExperimentConfig, systems: list, ppa: int = 6) -> list:
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
                nodes = midpoint_nodes(system.subcube_boxes(k, 2), ppa)
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


def _commutator_spectrum(sym: Symbol, riesz, p: float):
    op = assemble_commutator(sym, riesz)
    spec = singular_values(op)
    return op, spec, schatten_norm(spec, p)


def ratio_study(cfg: ExperimentConfig) -> Report:
    """Schatten norm of the commutator vs Besov norm of the symbol across
    the refinement ladder; summary reports the family ratio spread at the
    largest N and the per-symbol drift over the last refinement step."""
    if cfg.p <= cfg.n:
        raise ValueError("ratio study invalid in this range")
    params = BesovParams(cfg.n / cfg.p, cfg.p, cfg.p)
    # clamp the t window to the coarsest ladder grid's resolution floor so
    # every N integrates the same truncated functional; otherwise the
    # refinement drift would mostly measure the widening window
    widths = [hi - lo for lo, hi in cfg.box]
    floor = max(max(widths) / N for N in cfg.grid_sizes) ** 2
    t_grid = default_time_grid(max(cfg.t_min, floor), cfg.t_max, cfg.t_per_decade)
    family = symbol_family(cfg.family, cfg.n)
    rows = []
    ratios = {}
    spectra = {}
    for N in cfg.grid_sizes:
        grid = make_grid(cfg.n, cfg.box, N)
        shift_grid = default_shift_grid(grid, cfg.shift_per_decade, cfg.shift_angles)
        riesz = assemble_riesz(cfg.ell, grid)
        heat = besov_heat_norm(family, params, grid, t_grid)
        ext = besov_neumann_norm(family, params, grid, shift_grid)
        for sym, b_heat, b_ext in zip(family, heat, ext):
            spec, s_norm = _commutator_spectrum(sym, riesz, cfg.p)[1:]
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
        # no operator of this grid may stay alive through the next grid's
        # assembly, where the study's memory peaks
        del riesz
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
        raise ValueError("divergence study requires p = n")
    family = symbol_family(cfg.family, cfg.n)
    spectra = {}
    norms = {}
    for N in cfg.grid_sizes:
        riesz = assemble_riesz(cfg.ell, make_grid(cfg.n, cfg.box, N))
        for sym in family:
            spec, norms[sym.name, N] = _commutator_spectrum(sym, riesz, cfg.p)[1:]
            spectra[f"divergence_{sym.name}_N{N}"] = (spec, None)
        # as in ratio_study: free this grid's operators before the next
        del riesz
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


def lower_bound_audit(cfg: ExperimentConfig, N: int = None) -> Report:
    """Audits the lower-bound statistics against the commutator Schatten
    norm per symbol: the shifted-lattice energy sum, the witness-ball NWO
    sum, the generation-weighted L^p tails, and the same-half double
    integral.  Each statistic is compared at the norm level,
    statistic^{1/p} <= C * S^p norm, against the calibrated constant from
    the config; for the energy and NWO statistics the per-symbol C must
    additionally agree across the non-degenerate family to within the
    stability band (max/min <= 1.25/0.75)."""
    if cfg.p <= cfg.n:
        raise ValueError("lower-bound audit requires p > n")
    N = N if N is not None else cfg.grid_sizes[0]
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
    grid = make_grid(cfg.n, cfg.box, N)
    riesz = assemble_riesz(cfg.ell, grid)
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    norms = [_commutator_spectrum(sym, riesz, cfg.p)[2] for sym in family]
    fields = [SampledField(grid, sym(grid.nodes)) for sym in family]
    # every statistic takes the whole family and builds its
    # symbol-independent geometry and labels once per audit
    energy = _energy_statistic(fields, cfg, systems)
    nwo = _nwo_statistic(family, cfg, systems)
    tail = _tail_statistic(fields, cfg, systems[0])
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


def upper_bound_audit(cfg: ExperimentConfig, N: int = None) -> Report:
    """Checks weak-Schatten(commutator) <= kernel-factorization bound
    times the configured slack, plus the exact half-space split of the
    mixed weak norm: the Riesz kernel is exactly 0.0 on every cross-half
    pair of the grid, and the full mixed norm is at most the sum of the
    two same-half ones."""
    if cfg.p <= max(cfg.n, 2):
        raise ValueError("upper-bound audit requires p > max(n, 2)")
    N = N if N is not None else cfg.grid_sizes[0]
    rows = []
    spectra = {}
    passed = True
    # assembly never evaluates cross-half pairs, so the gate is checked
    # on the kernel itself, once for the grid all symbols share
    grid = make_grid(cfg.n, cfg.box, N)
    params = KernelParams(cfg.n, cfg.ell)
    xp, xm = grid.nodes[grid.mask_plus], grid.nodes[grid.mask_minus]
    cross_zero = bool(
        np.all(riesz_kernel(params, xp[:, None, :], xm[None, :, :]) == 0.0)
        and np.all(riesz_kernel(params, xm[:, None, :], xp[None, :, :]) == 0.0)
    )
    riesz = assemble_riesz(cfg.ell, grid)
    for sym in symbol_family(cfg.family, cfg.n):
        op, spec, s_norm = _commutator_spectrum(sym, riesz, cfg.p)
        weak = weak_schatten_norm(spec, cfg.p)
        # the full mixed norm is the direct half of the Russo bound, as
        # russo_bound computes it; both read the two same-half blocks, so
        # no whole M x M kernel is built.  The same-half norms reuse the
        # full norm's per-block column norms.
        inner = column_norms(op.blocks, cfg.p, op.weight)
        k_full = weak_outer_norm(np.concatenate(inner), cfg.p, op.weight)
        adjoint = mixed_norm([B.T for B in op.blocks], cfg.p, op.weight)
        bound = float(np.sqrt(k_full * adjoint))
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
    rng = np.random.default_rng(cfg.seed)
    checks = []
    n = cfg.n
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
    grid = make_grid(n, cfg.box, 48)
    ones = SampledField(grid, np.ones(len(grid.nodes)))
    t, s = 0.01, 0.02
    interior = np.all(np.abs(grid.nodes) < 1.0, axis=1)
    cons = apply_semigroup(ones, t, grid).values
    cons_err = float(np.max(np.abs(cons[interior] - 1.0)))
    checks.append(_check("semigroup_conservation_interior", cons_err, 1e-6, cons_err <= 1e-6))

    bump = symbol_family("default", n)[1]
    fld = SampledField(grid, bump(grid.nodes))
    comp = apply_semigroup(apply_semigroup(fld, t, grid), s, grid).values
    once = apply_semigroup(fld, t + s, grid).values
    comp_err = float(np.max(np.abs(comp - once)))
    checks.append(_check("semigroup_composition", comp_err, 1e-6, comp_err <= 1e-6))

    mirror = grid.mirror_index()
    plus_vals = np.where(grid.mask_plus, fld.values, 0.0)
    even_vals = plus_vals + plus_vals[mirror]
    route_a = apply_semigroup(SampledField(grid, plus_vals), t, grid).values
    route_b = apply_semigroup(SampledField(grid, even_vals), t, grid, kernel="full").values
    ext_err = float(np.max(np.abs(route_a - route_b)[grid.mask_plus & interior]))
    checks.append(_check("semigroup_even_extension", ext_err, 1e-6, ext_err <= 1e-6))

    try:
        apply_semigroup(ones, -1.0, grid)
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
        op = assemble_commutator(odd, assemble_riesz(ell, small))
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
    if x is None:
        return ""
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
