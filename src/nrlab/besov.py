"""Besov norms of half-space symbols, three routes.

Heat route: (int_0^oo (t^-alpha ||t D e^{-tD} b||_p)^q dt/t)^(1/q) with D
the interface-Neumann Laplacian; t D e^{-tD} b is obtained from the
semigroup alone as -t d/dt e^{-tD} b, a centered difference in log t.

Difference route: (int ||f(.+t) - f||_p^q / |t|^{n+q alpha} dt)^(1/q),
truncated shifts in log-polar form, passed as an (R, A, n) array
shifts[i, j] = radii[i] * directions[j]; one symbol call per radius.

Extension route: difference norms of the two even extensions, summed.
The shifted, folded nodes do not depend on the symbol, so they are built
once per (radius, half) for the whole family; each symbol is called on
the same array and keeps its own radius-ordered sum, so its norm does
not depend on the family it comes with.

All integrals are truncated to a box and to [t_min, t_max]; symbols are
compactly supported with margin, which keeps the dropped tails small
relative to the totals.  Truncation is the dominant systematic error
and is the reason route comparisons use calibrated ratio windows, not
tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import (
    QuadratureGrid,
    Symbol,
    apply_axis_matrices,
    apply_semigroup,  # noqa: F401  no caller here; perfbench's layer trace wraps this binding
    heat_axis_matrices,
)
from .dyadic import SampledField

__all__ = [
    "BesovParams",
    "even_extension",
    "default_time_grid",
    "default_shift_grid",
    "besov_heat_norm",
    "besov_diff_norm",
    "besov_neumann_norm",
]

# centered log-t difference step for -t d/dt
_H_LOG = 0.05


@dataclass(frozen=True)
class BesovParams:
    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.p < 1 or not math.isfinite(self.p):
            raise ValueError("p must lie in [1, oo)")
        if self.q < 1 or not math.isfinite(self.q):
            raise ValueError("q must lie in [1, oo)")


def _fold(x, half: str) -> np.ndarray:
    """A copy of the points x with x_n reflected into the chosen half:
    +|x_n| for 'plus', -|x_n| for 'minus'."""
    sign = 1.0 if half == "plus" else -1.0
    x = np.asarray(x, dtype=float)
    folded = x.copy()
    folded[..., -1] = sign * np.abs(x[..., -1])
    return folded


def even_extension(f, half: str) -> Symbol:
    """Reflect the chosen half across the interface: the extension agrees
    with f there and satisfies f_e(x', -x_n) = f_e(x', x_n) exactly."""
    if half not in ("plus", "minus"):
        raise ValueError("half must be 'plus' or 'minus'")
    func = getattr(f, "func", f)

    def extended(x):
        return func(_fold(x, half))

    name = getattr(f, "name", "symbol") + ("_e+" if half == "plus" else "_e-")
    return Symbol(name=name, func=extended, kind=getattr(f, "kind", "generic"))


def default_time_grid(t_min: float = 1e-3, t_max: float = 10.0, per_decade: int = 16) -> np.ndarray:
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    decades = math.log10(t_max / t_min)
    count = int(math.ceil(decades * per_decade)) + 1
    return np.geomspace(t_min, t_max, count)


def default_shift_grid(grid: QuadratureGrid, per_decade: int = 16, angles: int = 16) -> np.ndarray:
    """Log-polar shift sample from 2 grid spacings up to the box diagonal,
    as an (R, A, n) array with shifts[i, j] = radii[i] * directions[j].

    Built-in direction sampling covers n in {1, 2}; higher dimensions
    need an explicit shift set.
    """
    r_min = 2.0 * float(np.max(grid.spacing))
    r_max = float(np.linalg.norm(grid.box[:, 1] - grid.box[:, 0]))
    radii = default_time_grid(r_min, r_max, per_decade)
    if grid.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif grid.dim == 2:
        theta = 2.0 * np.pi * np.arange(angles) / angles
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        raise ValueError("default shift grid covers n <= 2; pass shift_grid explicitly")
    return radii[:, None, None] * dirs[None, :, :]


def besov_heat_norm(symbols, params: BesovParams, grid: QuadratureGrid, t_grid=None) -> list:
    """Heat-route Besov norms of a family of symbols on one grid, one per
    symbol, in family order.

    The semigroup does not depend on the symbol, so its axis matrices are
    built once per t-node and side step and applied to every symbol's
    field, each field by its own per-axis contraction (the one
    `apply_semigroup` makes), so a symbol's norm does not depend on the
    family it comes with.  t-nodes below the resolution floor
    max(spacing)^2 are dropped: the factored midpoint semigroup aliases
    below it (Poisson-summation error ~ exp(-4 pi^2 t / dx^2)) while the
    true integrand vanishes like t^(1-alpha) there.
    """
    if t_grid is None:
        t_grid = default_time_grid()
    t_grid = np.sort(np.asarray(t_grid, dtype=float).ravel())
    if t_grid.size == 0:
        raise ValueError("empty t grid")
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    floor = float(np.max(grid.spacing)) ** 2
    t_used = t_grid[t_grid >= floor]
    if t_used.size < 2:
        raise ValueError("t grid has fewer than 2 nodes above the resolution floor")

    values = [SampledField(grid, getattr(b, "func", b)(grid.nodes)).values for b in symbols]
    integrand_q = np.empty((len(values), t_used.size))
    for i, t in enumerate(t_used):
        up = heat_axis_matrices(t * math.exp(_H_LOG), grid, kernel="neumann-box")
        dn = heat_axis_matrices(t * math.exp(-_H_LOG), grid, kernel="neumann-box")
        for s, v in enumerate(values):
            deriv = -(apply_axis_matrices(v, up, grid) - apply_axis_matrices(v, dn, grid)) / (2.0 * _H_LOG)
            lp = float(np.sum(np.abs(deriv) ** params.p) * grid.weight) ** (1.0 / params.p)
            integrand_q[s, i] = (t ** (-params.alpha) * lp) ** params.q
    log_t = np.log(t_used)
    return [float(np.trapezoid(row, log_t)) ** (1.0 / params.q) for row in integrand_q]


def _difference_norms(symbols, params: BesovParams, grid: QuadratureGrid, shift_grid, halves) -> list:
    """Difference norms of each symbol on the nodes folded into each of
    `halves` (None leaves them unfolded): out[h][s] for halves[h] and
    symbols[s].  The shifted nodes of a radius, and their fold into each
    half, are built once for all the symbols; per half, each symbol is
    called on the nodes, then once per radius, and its terms are summed
    in radius order."""
    shifts = np.asarray(default_shift_grid(grid) if shift_grid is None else shift_grid, dtype=float)
    n = grid.dim
    if shifts.ndim != 3 or shifts.shape[-1] != n:
        raise ValueError(f"shift grid must be a (radii, directions, n={n}) array, got shape {shifts.shape}")
    if len(shifts) < 2 or shifts.size == 0:
        raise ValueError(f"shift grid needs at least 2 radii and 1 direction, got shape {shifts.shape}")
    radii = np.linalg.norm(shifts, axis=-1)
    if np.any(radii == 0):
        raise ValueError("shift grid must exclude 0")
    log_r = np.round(np.log(radii[:, 0]), 9)
    if np.any(np.diff(log_r) <= 0):
        raise ValueError("shift grid radii must increase along the first axis")
    edged = np.pad(log_r, 1, mode="edge")
    dlog = (edged[2:] - edged[:-2]) / 2.0
    # |S^{n-1}| = 2 pi^(n/2) / Gamma(n/2); the n = 1 case is kept as the exact 2
    sphere = 2.0 if n == 1 else 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    weights = radii**n * dlog[:, None] * (sphere / shifts.shape[1])

    def place(x, half):
        return x if half is None else _fold(x, half)

    funcs = [getattr(f, "func", f) for f in symbols]
    bases = []
    for half in halves:
        nodes = place(grid.nodes, half)
        bases.append([np.asarray(func(nodes), dtype=float) for func in funcs])
    totals = [[0.0] * len(funcs) for _ in halves]
    for row, r, w in zip(shifts, radii, weights):
        shifted = grid.nodes + row[:, None, :]
        for h, half in enumerate(halves):
            points = place(shifted, half)
            for s, func in enumerate(funcs):
                diff = np.asarray(func(points), dtype=float) - bases[h][s]
                lp = (np.sum(np.abs(diff) ** params.p, axis=-1) * grid.weight) ** (1.0 / params.p)
                totals[h][s] += float(np.sum(w * lp**params.q / r ** (n + params.q * params.alpha)))
    return [[total ** (1.0 / params.q) for total in row] for row in totals]


def besov_diff_norm(f, params: BesovParams, grid: QuadratureGrid, shift_grid=None) -> float:
    """Difference-quotient Besov norm, truncated to the grid box.

    shift_grid is an (R, A, n) array shifts[i, j] = radii[i] * directions[j]
    of R >= 2 increasing radii and A directions uniform on the sphere, as
    `default_shift_grid` builds it.  Weights are r^n dlog(r) |S^{n-1}|/A,
    a trapezoid in log r.  The log radii stay rounded to 9 decimals, as
    in the recorded reference outputs: exact logs move the weights by up
    to 6e-9 relative (N = 64), beyond the 1e-12 agreement kept on them.
    f is called on the nodes, then once per radius on all A shifted
    copies of them.
    """
    ((norm,),) = _difference_norms([f], params, grid, shift_grid, (None,))
    return norm


def besov_neumann_norm(symbols, params: BesovParams, grid: QuadratureGrid, shift_grid=None) -> list:
    """Extension-route Besov norms of a family of symbols on one grid, one
    per symbol, in family order: the sum of the difference norms of the
    two even extensions.

    The shifted and folded nodes are built once per (radius, half) for
    the whole family, and each symbol makes 2 (1 + R) calls on them, so
    a symbol's norm does not depend on the family it comes with.
    Vanishes exactly on per-half constants (both extensions constant)
    and reduces to a single term when b is supported in one half.
    """
    plus, minus = _difference_norms(symbols, params, grid, shift_grid, ("plus", "minus"))
    return [a + b for a, b in zip(plus, minus)]
