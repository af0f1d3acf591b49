"""Besov norms of half-space symbols, three routes.

Heat route: (int_0^oo (t^-alpha ||t D e^{-tD} b||_p)^q dt/t)^(1/q) with D
the interface-Neumann Laplacian; t D e^{-tD} b is obtained from the
semigroup alone as -t d/dt e^{-tD} b, a centered difference in log t.

Difference route: (int ||f(.+t) - f||_p^q / |t|^{n+q alpha} dt)^(1/q),
truncated shifts in log-polar form, passed as an (R, A, n) array
shifts[i, j] = radii[i] * directions[j]; one symbol call per radius.

Extension route: difference norms of the two even extensions, summed.
The shifted, folded nodes do not depend on the symbol, so they are built
once per (radius, half) for the whole family, stored coordinate-major;
each symbol is called on the same array and keeps its own radius-ordered
sum, so its norm does not depend on the family it comes with.

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
    row_blocks,
)
from .dyadic import SampledField
from .spectra import abs_power

__all__ = [
    "BesovParams",
    "even_extension",
    "default_time_grid",
    "default_shift_grid",
    "resolution_floor",
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


def _fold_normal(normal: np.ndarray, half: str) -> None:
    """Reflect the normal coordinates `normal` into the chosen half, in
    place: +|x_n| for 'plus', -|x_n| for 'minus'."""
    np.abs(normal, out=normal)
    if half == "minus":
        np.negative(normal, out=normal)


def _fold(x, half: str) -> np.ndarray:
    """A copy of the points x with x_n reflected into the chosen half."""
    folded = np.array(x, dtype=float)
    _fold_normal(folded[..., -1], half)
    return folded


def even_extension(f, half: str) -> Symbol:
    """Reflect the chosen half across the interface: the extension agrees
    with f there and satisfies f_e(x', -x_n) = f_e(x', x_n) exactly."""
    if half not in ("plus", "minus"):
        raise ValueError("half must be 'plus' or 'minus'")

    def extended(x):
        return f(_fold(x, half))

    name = getattr(f, "name", "symbol") + ("_e+" if half == "plus" else "_e-")
    return Symbol(name=name, func=extended, kind=getattr(f, "kind", "generic"))


def default_time_grid(t_min: float, t_max: float, per_decade: int) -> np.ndarray:
    if not 0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    decades = math.log10(t_max / t_min)
    count = int(math.ceil(decades * per_decade)) + 1
    return np.geomspace(t_min, t_max, count)


def resolution_floor(grid: QuadratureGrid) -> float:
    """The smallest t the heat route resolves on `grid`: the largest
    spacing, squared.  Below it the factored midpoint semigroup aliases
    (Poisson-summation error ~ exp(-4 pi^2 t / dx^2)) while the true
    integrand vanishes like t^(1-alpha)."""
    return float(np.max(grid.spacing)) ** 2


def default_shift_grid(grid: QuadratureGrid, per_decade: int, angles: int) -> np.ndarray:
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


def besov_heat_norm(symbols, params: BesovParams, grid: QuadratureGrid, t_grid) -> list:
    """Heat-route Besov norms of a family of symbols on one grid, one per
    symbol, in family order.

    The semigroup does not depend on the symbol, so the family's fields
    are stacked once and evolved together: the kept t-nodes are walked
    in `row_blocks` chunks of at most 2^16 field values.  Per chunk one
    `heat_axis_matrices` call builds the matrices of both side steps,
    t e^h and t e^-h, of all its t-nodes, and each side is applied to
    all the fields in its own batched contraction; one contraction of
    both sides, or the matrices of every t-node at once, would hold
    more memory.  Each field still gets its own per-axis contraction,
    bit for bit the one `apply_semigroup` makes, so a symbol's norm does
    not depend on the family it comes with.  The scalar tail, the p-th
    root and the t weight, is taken once per (t-node, symbol) on
    scalars: numpy's vector `**` moves the last bits of some norms.
    t-nodes below `resolution_floor(grid)` are dropped.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float).ravel())
    if t_grid.size == 0:
        raise ValueError("empty t grid")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t grid must be finite")
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    t_used = t_grid[t_grid >= resolution_floor(grid)]
    if t_used.size < 2:
        raise ValueError("t grid has fewer than 2 nodes above the resolution floor")

    values = np.stack([SampledField(grid, b(grid.nodes)).values for b in symbols])

    def evolve(mats):
        """Every field at every time of `mats`, as a (times, symbols, m) array."""
        return apply_axis_matrices(values, [mat[:, None] for mat in mats], grid)

    sums = np.empty((t_used.size, len(values)))
    for i0, i1 in row_blocks(t_used.size, values.size):
        t = t_used[i0:i1]
        sides = np.stack([t * math.exp(_H_LOG), t * math.exp(-_H_LOG)])
        ahead, behind = zip(*heat_axis_matrices(sides, grid, kernel="neumann-box"))
        deriv = -(evolve(ahead) - evolve(behind)) / (2.0 * _H_LOG)
        sums[i0:i1] = np.sum(np.abs(deriv) ** params.p, axis=-1)
    integrand_q = np.empty((len(values), t_used.size))
    for (i, s), total in np.ndenumerate(sums):
        lp = float(total * grid.weight) ** (1.0 / params.p)
        integrand_q[s, i] = (t_used[i] ** (-params.alpha) * lp) ** params.q
    log_t = np.log(t_used)
    return [float(np.trapezoid(row, log_t)) ** (1.0 / params.q) for row in integrand_q]


def _difference_norms(symbols, params: BesovParams, grid: QuadratureGrid, shift_grid, halves) -> list:
    """Difference norms of each symbol on the nodes folded into each of
    `halves` (None leaves them unfolded): out[h][s] for halves[h] and
    symbols[s].  The shifted nodes of a radius, folded into a half, are
    built once for all the symbols, as a fresh coordinate-major (n, A, m)
    array filled one coordinate at a time, its normal coordinate folded
    in place; the symbols are called on its (A, m, n) transpose view, so
    each x[..., j] they read is contiguous.  The values are those of the
    point-major `nodes + shift` array, and a symbol that works per
    coordinate returns the same bits on either layout.  Per half, each
    symbol is called on the nodes, then once per radius, and its terms
    are summed in radius order."""
    shifts = np.asarray(shift_grid, dtype=float)
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

    bases = []
    for half in halves:
        nodes = grid.nodes if half is None else _fold(grid.nodes, half)
        bases.append([np.asarray(f(nodes), dtype=float) for f in symbols])
    totals = [[0.0] * len(symbols) for _ in halves]
    for row, r, w in zip(shifts, radii, weights):
        for h, half in enumerate(halves):
            coords = np.empty((n, len(row), len(grid.nodes)))
            for j in range(n):
                np.add(grid.nodes[:, j], row[:, None, j], out=coords[j])
            if half is not None:
                _fold_normal(coords[-1], half)
            points = coords.transpose(1, 2, 0)
            for s, f in enumerate(symbols):
                diff = np.asarray(f(points), dtype=float) - bases[h][s]
                lp = (np.sum(abs_power(diff, params.p), axis=-1) * grid.weight) ** (1.0 / params.p)
                totals[h][s] += float(np.sum(w * lp**params.q / r ** (n + params.q * params.alpha)))
    return [[total ** (1.0 / params.q) for total in row] for row in totals]


def besov_diff_norm(f, params: BesovParams, grid: QuadratureGrid, shift_grid) -> float:
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


def besov_neumann_norm(symbols, params: BesovParams, grid: QuadratureGrid, shift_grid) -> list:
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
