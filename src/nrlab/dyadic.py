"""Dyadic cube systems on half-spaces, Haar bases and martingale sums.

A system is the standard binary lattice of side 2^-k translated by one
global shift vector h (|h| < 1), restricted to a bounding box and to one
closed half-space.  Cubes that straddle the interface x_n = 0 are not
admissible and are dropped.  The global shift realizes adjacent systems
via h in {0, 1/3}^n: relative to the unshifted lattice the
per-generation offset alternates between 1/3 and 2/3 of the side, which
is the usual one-third trick.

Each generation's admissible cubes form one index block, recorded by
`build_system`; node labels and sub-cube boxes are read from it.
Averages and energy sums label the grid nodes once per generation
(`DyadicSystem.labels`: the position of each node's admissible cube, or
-1, found axis by axis) and reduce over the labels with `np.bincount`.
They accept a stack of fields on one grid, which then shares each
generation's labelling.

Sampled data lives on a quadrature grid (see discretize.QuadratureGrid);
this module only assumes the grid exposes `nodes`, its per-axis
coordinates `axes` and `spacing`, so there is no import cycle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Cube",
    "DyadicSystem",
    "HaarFunction",
    "SampledField",
    "build_system",
    "haar_basis",
    "conditional_expectation",
    "generation_labels",
    "labelled_expectation",
    "martingale_difference",
    "median",
    "finest_resolved_generation",
    "dyadic_energy_sum",
    "dyadic_energy_sums",
    "separated_subcubes",
    "gradient_oscillation_check",
    "nodes_in_cube",
    "midpoint_nodes",
    "box_midpoint_mean",
    "numeric_gradient",
]


@dataclass(frozen=True)
class Cube:
    """Half-space dyadic cube: box = shift + 2^-k (m + [0,1)^n)."""

    k: int
    m: tuple
    shift: tuple
    half: str

    def __post_init__(self):
        if self.half not in ("plus", "minus"):
            raise ValueError("half must be 'plus' or 'minus'")
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "shift", tuple(float(v) for v in self.shift))
        if len(self.m) != len(self.shift):
            raise ValueError("index and shift dimensions differ")

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def vertex(self) -> np.ndarray:
        return np.asarray(self.shift) + self.side * np.asarray(self.m, dtype=float)

    @property
    def center(self) -> np.ndarray:
        return self.vertex + 0.5 * self.side

    @property
    def box(self) -> np.ndarray:
        """Shape (n, 2): half-open extent [lo, hi) per axis."""
        v = self.vertex
        return np.stack([v, v + self.side], axis=1)

    @property
    def volume(self) -> float:
        return self.side**self.n

    def in_half(self) -> bool:
        # the last coordinate of `vertex`, in the same float operations
        lo = self.shift[-1] + self.side * self.m[-1]
        return lo >= 0.0 if self.half == "plus" else lo + self.side <= 0.0

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        lo = self.vertex
        hi = lo + self.side
        return np.all((pts >= lo) & (pts < hi), axis=-1)


@dataclass
class DyadicSystem:
    """Admissible cubes of one shifted lattice on a box: generation k's
    index block is `blocks[k]` = (first index, shape), and `cubes[k]` its
    indices in C order, last index fastest."""

    half: str
    shift: tuple
    k_min: int
    k_max: int
    cubes: dict = field(default_factory=dict)
    blocks: dict = field(default_factory=dict)

    def generations(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def get(self, k: int, m: tuple):
        """The admissible cube with index m in generation k, or None: its
        position in `cubes[k]` is m's raveled offset in `blocks[k]`."""
        if k not in self.blocks:
            return None
        first, shape = self.blocks[k]
        offset = tuple(mi - lo for mi, lo in zip(m, first))
        if not all(0 <= o < size for o, size in zip(offset, shape)):
            return None
        return self.cubes[k][np.ravel_multi_index(offset, shape)]

    def children(self, Q: Cube) -> list:
        """Admissible children present in the system (all 2^n for an
        admissible parent inside the box)."""
        kids = []
        for s in itertools.product((0, 1), repeat=Q.n):
            child = self.get(Q.k + 1, tuple(2 * mi + si for mi, si in zip(Q.m, s)))
            if child is not None:
                kids.append(child)
        return kids

    def parent(self, Q: Cube):
        return self.get(Q.k - 1, tuple(mi // 2 for mi in Q.m))

    def labels(self, axes, k: int) -> np.ndarray:
        """Position in `cubes[k]` of the cube holding each node of the
        tensor grid with per-axis coordinates `axes` (nodes in C order,
        last axis fastest, as `QuadratureGrid.nodes`), or -1.

        A node lies in a cube iff each of its coordinates lies in the
        cube's interval on that axis, so each axis's coordinates are
        labelled once.  Floor division gives a coordinate's lattice index,
        correct to +-1; testing those three candidates against the float
        vertex shift + side * m, as `Cube.contains` does, settles it.
        Where two float intervals overlap by an ulp, the later cube takes
        the coordinate, as a last-write scan over `cubes[k]` would.  The
        position is the raveled offset of the node's index in the
        generation's recorded block.
        """
        first, shape = self.blocks[k]
        side = 2.0 ** (-k)
        axes = [np.asarray(coords, dtype=float) for coords in axes]
        sizes = [len(coords) for coords in axes]
        # every axis's coordinates in one pass, each with its axis's shift
        # and index window, one row per candidate
        coords = np.concatenate(axes)
        shift, lo, count = (np.repeat(np.asarray(v), sizes) for v in (self.shift, first, shape))
        m = np.floor((coords - shift) / side) + np.array([[-1.0], [0.0], [1.0]])
        vertex = shift + side * m
        hit = (coords >= vertex) & (coords < vertex + side) & (m >= lo) & (m < lo + count)
        # the last candidate holding a coordinate takes it
        step = 2 - np.argmax(hit[::-1], axis=0)
        offset = np.where(hit.any(axis=0), m[step, np.arange(len(coords))] - lo, -1).astype(np.int64)
        out = np.zeros((), dtype=np.int64)
        covered = np.ones((), dtype=bool)
        end = 0
        for length, size in zip(sizes, shape):
            axis_offset = offset[end : end + length]
            end += length
            out = out[..., None] * size + axis_offset
            covered = covered[..., None] & (axis_offset >= 0)
        return np.where(covered, out, -1).ravel()

    def subcube_boxes(self, k: int, levels: int) -> np.ndarray:
        """`Cube.box` of each generation-(k + levels) sub-cube of the
        generation-k cubes, shape (cubes, 2^(n levels), n, 2), sub-cubes in
        lexicographic order of their offsets."""
        first, shape = self.blocks[k]
        m = np.asarray(first) + np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=-1)
        offsets = np.array(list(itertools.product(range(2**levels), repeat=len(shape))), dtype=int)
        side = 2.0 ** (-(k + levels))
        lo = np.asarray(self.shift) + side * (2**levels * m[:, None, :] + offsets).astype(float)
        return np.stack([lo, lo + side], axis=-1)


def build_system(half: str, shift, box, k_range) -> DyadicSystem:
    """Enumerate the admissible cubes of a shifted lattice on box x half.

    Cubes fully contained in the bounding box and inside the closed
    half-space are admissible; every other cube is dropped.  A cube's
    half is monotone in its last index alone, so the admissible indices
    are the per-axis box windows with the last one cut to a run.

    Raises "degenerate domain" when the box does not meet the requested
    half-space.
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    n = box.shape[0]
    shift = tuple(float(v) for v in np.broadcast_to(np.asarray(shift, float), (n,)))
    if np.linalg.norm(shift) >= 1.0:
        raise ValueError("|shift| must be < 1")
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    if half == "plus" and box[-1, 1] <= 0.0:
        raise ValueError("degenerate domain: box misses the plus half-space")
    if half == "minus" and box[-1, 0] >= 0.0:
        raise ValueError("degenerate domain: box misses the minus half-space")

    system = DyadicSystem(half=half, shift=shift, k_min=k_min, k_max=k_max)
    for k in range(k_min, k_max + 1):
        side = 2.0 ** (-k)
        # integer index windows per axis, with fuzz so exact box edges count
        ranges = []
        for j in range(n):
            lo = int(np.ceil((box[j, 0] - shift[j]) / side - 1e-9))
            hi = int(np.floor((box[j, 1] - shift[j]) / side + 1e-9)) - 1
            ranges.append(range(lo, hi + 1))
        run = [j for j in ranges[-1] if Cube(k, (0,) * (n - 1) + (j,), shift, half).in_half()]
        ranges[-1] = range(run[0], run[-1] + 1) if run else range(0)
        system.blocks[k] = (tuple(r.start for r in ranges), tuple(len(r) for r in ranges))
        system.cubes[k] = [Cube(k, m, shift, half) for m in itertools.product(*ranges)]
    return system


@dataclass
class SampledField:
    """One real value per grid node."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.grid.nodes),):
            raise ValueError("values must be one scalar per grid node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass(frozen=True)
class HaarFunction:
    """Tensor Haar function: constant +-|Q|^(-1/2) on each child of Q.

    The sign on the child with binary position s is prod_j (-1)^(s_j e_j)
    for the index vector e != 0, which gives mean zero, unit L2 norm and
    pairwise orthogonality across indices.
    """

    parent: Cube
    child_signs: tuple  # one sign per child, children in lexicographic s order

    @property
    def amplitude(self) -> float:
        return self.parent.volume ** (-0.5)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        inside = self.parent.contains(pts)
        if not np.any(inside):
            return out
        rel = (pts - self.parent.vertex) / self.parent.side
        # child binary position per axis: 0 for [0, 1/2), 1 for [1/2, 1)
        s = (rel >= 0.5).astype(int)
        idx = np.zeros(pts.shape[:-1], dtype=int)
        for j in range(self.parent.n):
            idx = 2 * idx + s[..., j]
        signs = np.asarray(self.child_signs)
        out[inside] = self.amplitude * signs[idx[inside]]
        return out


def haar_basis(Q: Cube) -> list:
    """All 2^n - 1 Haar functions of a cube with its full set of children."""
    n = Q.n
    m_q = 2**n
    if m_q < 2:
        raise ValueError("no Haar functions")
    children = list(itertools.product((0, 1), repeat=n))
    basis = []
    for eps in itertools.product((0, 1), repeat=n):
        if not any(eps):
            continue
        signs = tuple(
            float(np.prod([(-1.0) ** (s[j] * eps[j]) for j in range(n)]))
            for s in children
        )
        basis.append(HaarFunction(parent=Q, child_signs=signs))
    return basis


def nodes_in_cube(grid, Q: Cube) -> np.ndarray:
    """Boolean mask of grid nodes inside the half-open cube box."""
    return Q.contains(grid.nodes)


def finest_resolved_generation(grid) -> int:
    """The largest generation k whose cubes keep at least 4 grid cells
    per side: 2^-k >= 4 max(spacing), with 1e-9 of slack on log2 so
    that exact powers of two are not lost to rounding."""
    return int(math.floor(math.log2(1.0 / (4.0 * float(np.max(grid.spacing)))) + 1e-9))


def _require_resolved(grid, k: int):
    if k > finest_resolved_generation(grid):
        raise ValueError(f"grid too coarse for generation {k}")


def _cube_means(values: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """Mean of values over the nodes of each of `count` labelled cubes.

    `values` is one field (M,) or a stack of fields (S, M) on the same
    nodes; the result has shape (count,) or (S, count).  A stack is
    reduced in one pass, field s taking the labels offset by s * count;
    `bincount` adds in input order, so each field's means are bit for
    bit those of a one-field call.  A block of equal values gets that
    value itself, not sum/count, so energy sums detect (per-half-)
    constant fields as exact zeros."""
    inside = labels >= 0
    size = np.bincount(labels[inside], minlength=count)
    if np.any(size == 0):
        raise ValueError("grid too coarse")
    rows = np.reshape(values, (-1, len(labels)))[:, inside]
    lab = (labels[inside] + count * np.arange(len(rows))[:, None]).ravel()
    vals = rows.ravel()
    total = count * len(rows)
    lo = np.full(total, np.inf)
    hi = np.full(total, -np.inf)
    np.minimum.at(lo, lab, vals)
    np.maximum.at(hi, lab, vals)
    means = np.where(lo == hi, lo, np.bincount(lab, vals, total) / np.tile(size, len(rows)))
    return means.reshape(np.shape(values)[:-1] + (count,))


def generation_labels(grid, system: DyadicSystem) -> list:
    """`DyadicSystem.labels` of the grid's nodes for each generation of
    the system, in order; refuses a generation the grid does not
    resolve.  Labelled once, they serve every field on the grid."""
    return [_grid_labels(grid, system, k) for k in system.generations()]


def _grid_labels(grid, system: DyadicSystem, k: int) -> np.ndarray:
    _require_resolved(grid, k)
    if k not in system.cubes:
        raise ValueError(f"generation {k} outside system range")
    return system.labels(grid.axes, k)


def labelled_expectation(values: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """`values` averaged over each of `count` labelled cubes (unlabelled
    nodes keep their values).

    `values` is one field (M,) or a stack of fields (S, M) on the
    labelled nodes: one labelling serves the whole stack, and each
    field's averages are bit for bit those of a one-field call."""
    inside = labels >= 0
    out = np.array(values, dtype=float)
    out[..., inside] = _cube_means(out, labels, count)[..., labels[inside]]
    return out


def conditional_expectation(f: SampledField, k: int, system: DyadicSystem) -> SampledField:
    """Average f over each admissible generation-k cube.

    Nodes not covered by an admissible cube (next to the interface or
    outside the box coverage) keep their original values; all downstream
    sums only ever look at nodes inside admissible cubes.
    """
    labels = _grid_labels(f.grid, system, k)
    return SampledField(f.grid, labelled_expectation(f.values, labels, len(system.cubes[k])))


def martingale_difference(f: SampledField, k: int, system: DyadicSystem) -> SampledField:
    """E_{k+1}(f) - E_k(f); mean zero on every admissible generation-k cube."""
    fine = conditional_expectation(f, k + 1, system)
    coarse = conditional_expectation(f, k, system)
    return SampledField(f.grid, fine.values - coarse.values)


def median(values):
    """Median in the level-set sense with a deterministic tie-break,
    along the last axis: each row's median, a scalar for 1-d values.

    Returns the smallest sample value a such that both strict level sets
    {v > a} and {v < a} contain at most half of the row.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] == 0:
        raise ValueError("median needs a non-empty last axis")
    # the lower median: at most (size - 1) // 2 values lie below it and at
    # most size // 2 above, and every smaller sample value has more above
    return np.sort(vals, axis=-1)[..., (vals.shape[-1] - 1) // 2]


def dyadic_energy_sum(b: SampledField, system: DyadicSystem, p: float) -> float:
    """Sum over generations and admissible cubes of the cube-averaged
    p-th power of the martingale difference:

        sum_k sum_Q avg_Q |E_{k+1}(b) - E_k(b)|^p

    for k from k_min to k_max - 1.  Zero iff b is grid-constant on each
    admissible finest-generation cube.
    """
    return float(dyadic_energy_sums(b.values, generation_labels(b.grid, system), system, p)[0])


def dyadic_energy_sums(values: np.ndarray, labels: list, system: DyadicSystem, p: float) -> np.ndarray:
    """`dyadic_energy_sum` of each field of a stack (S, M) (or of one
    field (M,)) on labelled nodes, as an array of S sums; `labels` holds
    the nodes' labels for each generation of the system
    (`generation_labels`).

    One average per generation serves every field and the two
    differences that generation enters; each field's sum is bit for bit
    that of a one-field call."""
    if p < 1:
        raise ValueError("p must be >= 1")
    values = np.reshape(values, (-1, len(labels[0])))
    total = np.zeros(len(values))
    if len(labels) < 2:
        return total  # empty sum
    counts = [len(system.cubes[k]) for k in system.generations()]
    levels = [labelled_expectation(values, lab, count) for lab, count in zip(labels, counts)]
    for lab, count, coarse, fine in zip(labels, counts, levels, levels[1:]):
        total += _cube_means(np.abs(fine - coarse) ** p, lab, count).sum(axis=-1)
    return total


def separated_subcubes(Q: Cube, a) -> tuple:
    """Two generation-(k+2) subcubes of Q with a guaranteed coordinate gap.

    With vertices at vertex(Q) + 2^-(k+2) (1 + a_j) and
    vertex(Q) + 2^-(k+2) (1 - a_j) per axis, every x in Q' and y in Q''
    satisfy a_j (x_j - y_j) >= 2^-(k+2) in every coordinate.  (The gap is
    2^-(k+2), a quarter of the side of Q.)
    """
    a = np.asarray(a, dtype=int)
    if a.shape != (Q.n,) or not np.all(np.abs(a) == 1):
        raise ValueError("a must be a vector of +-1 per axis")
    m1 = tuple(4 * mi + 1 + ai for mi, ai in zip(Q.m, a))
    m2 = tuple(4 * mi + 1 - ai for mi, ai in zip(Q.m, a))
    return (
        Cube(Q.k + 2, m1, Q.shift, Q.half),
        Cube(Q.k + 2, m2, Q.shift, Q.half),
    )


def midpoint_nodes(boxes, points_per_axis: int) -> np.ndarray:
    """Tensor midpoint-rule nodes of axis-aligned boxes (..., n, 2), as an
    array (..., points_per_axis^n, n): nodes in C order of their per-axis
    positions, last axis fastest."""
    boxes = np.asarray(boxes, dtype=float)
    lo, hi = boxes[..., 0], boxes[..., 1]
    n, ppa = boxes.shape[-2], points_per_axis
    axes = lo[..., None] + (np.arange(ppa) + 0.5) * (hi - lo)[..., None] / ppa
    # node p takes coordinate j from axes[..., j, idx[p, j]]
    idx = np.stack(np.unravel_index(np.arange(ppa**n), (ppa,) * n), axis=-1)
    return axes[..., np.arange(n), idx]


def box_midpoint_mean(func: Callable, box: np.ndarray, points_per_axis: int = 24) -> float:
    """Mean of func over an axis-aligned box (n, 2) on its `midpoint_nodes`."""
    return float(np.mean(func(midpoint_nodes(box, points_per_axis))))


def numeric_gradient(func: Callable, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a vectorized function."""
    x = np.asarray(x, dtype=float)
    n = x.size
    steps = h * np.eye(n)
    return np.array(
        [(float(func(x + steps[j])) - float(func(x - steps[j]))) / (2 * h) for j in range(n)]
    )


def gradient_oscillation_check(b, x0: np.ndarray, k: int, points_per_axis: int = 24):
    """Compare the separated-subcube mean gap against 2^-k |grad b(x0)|.

    b is a closed-form symbol (anything callable on (..., n) arrays, a
    Symbol included); its gradient at x0 is `numeric_gradient`.
    The cube is the generation-k cube of the unshifted lattice containing
    x0, a_j is the sign of the j-th partial derivative (ties resolved to
    +1), and the two subcube means are evaluated by midpoint quadrature.

    Returns (lhs, rhs, lhs/rhs).
    """
    x0 = np.asarray(x0, dtype=float)
    grad = numeric_gradient(b, x0)
    norm = float(np.linalg.norm(grad))
    if norm < 1e-12:
        raise ValueError("degenerate gradient")

    side = 2.0 ** (-k)
    m = tuple(int(np.floor(v / side)) for v in x0)
    half = "plus" if x0[-1] >= 0 else "minus"
    Q = Cube(k, m, (0.0,) * x0.size, half)
    a = np.where(grad >= 0.0, 1, -1)
    q1, q2 = separated_subcubes(Q, a)
    lhs = abs(
        box_midpoint_mean(b, q1.box, points_per_axis)
        - box_midpoint_mean(b, q2.box, points_per_axis)
    )
    rhs = side * norm
    return lhs, rhs, lhs / rhs
