"""Reference forms the tests check the package against: the even
extension of a symbol, the unfolded difference-route Besov norm, and
navigation between a dyadic system's parent and child cubes.  No study,
command or config needs them, so they live with the tests."""

import itertools
import math

import numpy as np

from nrlab.discretize import Symbol
from nrlab.spectra import abs_power


def _folded_copy(x, half):
    """A copy of the points x with x_n reflected into the chosen half."""
    folded = np.array(x, dtype=float)
    folded[..., -1] = (1.0 if half == "plus" else -1.0) * np.abs(folded[..., -1])
    return folded


def even_extension(f, half: str) -> Symbol:
    """Reflect the chosen half across the interface: the extension agrees
    with f there and satisfies f_e(x', -x_n) = f_e(x', x_n) exactly."""
    if half not in ("plus", "minus"):
        raise ValueError("half must be 'plus' or 'minus'")
    name = getattr(f, "name", "symbol") + ("_e+" if half == "plus" else "_e-")
    return Symbol(name=name, func=lambda x: f(_folded_copy(x, half)), kind=getattr(f, "kind", "generic"))


def difference_norms_point_major(symbols, params, grid, shifts, halves):
    """out[h][s], the difference norm of symbols[s] on the nodes folded
    into halves[h] (None leaves them unfolded), with each radius's
    shifted nodes broadcast into one point-major (A, m, n) array and
    folded into each half by a copy.  Weights and summation order are
    those of `besov_neumann_norm`."""
    n = grid.dim
    radii = np.linalg.norm(shifts, axis=-1)
    edged = np.pad(np.round(np.log(radii[:, 0]), 9), 1, mode="edge")
    dlog = (edged[2:] - edged[:-2]) / 2.0
    sphere = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    weights = radii**n * dlog[:, None] * (sphere / shifts.shape[1])

    def place(x, half):
        return x if half is None else _folded_copy(x, half)

    bases = [[np.asarray(f(place(grid.nodes, half)), dtype=float) for f in symbols] for half in halves]
    totals = [[0.0] * len(symbols) for _ in halves]
    for row, r, w in zip(shifts, radii, weights):
        shifted = grid.nodes + row[:, None, :]
        for h, half in enumerate(halves):
            points = place(shifted, half)
            for s, f in enumerate(symbols):
                diff = np.asarray(f(points), dtype=float) - bases[h][s]
                lp = (np.sum(abs_power(diff, params.p), axis=-1) * grid.weight) ** (1.0 / params.p)
                totals[h][s] += float(np.sum(w * lp**params.q / r ** (n + params.q * params.alpha)))
    return [[total ** (1.0 / params.q) for total in row] for row in totals]


def besov_diff_norm(f, params, grid, shifts) -> float:
    """The difference-route Besov norm of f on the unfolded nodes,
    (sum over shifts t of w_t ||f(. + t) - f||_p^q / |t|^{n + q alpha})^(1/q),
    for an (R, A, n) shift sample as `default_shift_grid` builds it."""
    ((norm,),) = difference_norms_point_major([f], params, grid, shifts, (None,))
    return norm


def cube_at(system, k: int, m: tuple):
    """The admissible cube with index m in generation k, or None: its
    position in `cubes[k]` is m's raveled offset in `blocks[k]`."""
    if k not in system.blocks:
        return None
    first, shape = system.blocks[k]
    offset = tuple(mi - lo for mi, lo in zip(m, first))
    if not all(0 <= o < size for o, size in zip(offset, shape)):
        return None
    return system.cubes[k][np.ravel_multi_index(offset, shape)]


def children(system, Q) -> list:
    """The admissible children of Q present in the system (all 2^n for an
    admissible parent inside the box)."""
    offsets = itertools.product((0, 1), repeat=Q.n)
    kids = (cube_at(system, Q.k + 1, tuple(2 * mi + si for mi, si in zip(Q.m, s))) for s in offsets)
    return [kid for kid in kids if kid is not None]


def parent(system, Q):
    """The admissible cube of generation k - 1 with index m // 2, or None."""
    return cube_at(system, Q.k - 1, tuple(mi // 2 for mi in Q.m))
