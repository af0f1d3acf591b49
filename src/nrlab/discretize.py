"""Quadrature grids and dense discretizations of the half-space operators.

Cell-center (midpoint) quadrature throughout: on a box with N cells per
axis every node carries the same weight w = cell volume, no node ever
sits on the interface x_n = 0, and matrix entries carry one factor of w
so the discrete operator acts on l2(grid, w).  Singular-kernel matrices
use a zero diagonal (principal-value convention; for the commutator the
factor b(x)-b(y) vanishes there anyway).  Operators are stored as their
two same-half blocks.  Neither the Riesz blocks nor the semigroup's axis
matrices depend on the symbol: callers build them once per grid (and
time) and apply them to every symbol.

The semigroup is applied in factored form, one axis at a time, which is
algebraically identical to the dense midpoint-rule matrix but costs
O(n N^{n+1}) instead of O(N^{2n}).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dyadic import SampledField
from .kernels import Ball, KernelParams, riesz_kernel
from .kvconfig import read_kv_file, write_kv_file

__all__ = [
    "QuadratureGrid",
    "OperatorMatrix",
    "Symbol",
    "check_grid",
    "make_grid",
    "assemble_commutator",
    "assemble_riesz",
    "apply_semigroup",
    "apply_axis_matrices",
    "heat_axis_matrices",
    "export_matrix",
    "read_matrix",
    "ball_microgrid",
]

# Sign of the reflected heat-kernel term.  Correct value is +1; the
# verification suite flips it to prove the even-extension identity check
# actually catches a corrupted kernel.
_REFLECTED_SIGN = 1.0

_MAGIC = b"NRLMAT1\x00"


@dataclass
class QuadratureGrid:
    """Uniform cell-center grid on an axis-aligned box."""

    box: np.ndarray
    shape: tuple
    axes: list
    nodes: np.ndarray
    spacing: np.ndarray
    weight: float

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def mask_plus(self) -> np.ndarray:
        return self.nodes[:, -1] > 0.0

    @property
    def mask_minus(self) -> np.ndarray:
        return self.nodes[:, -1] < 0.0

    def half_indices(self) -> list:
        """Node indices of the plus and the minus half, skipping an empty one.

        Every pair the Neumann kernels couple lies inside one of these
        sets; a node on the interface belongs to neither, so it is
        rejected.
        """
        plus, minus = self.mask_plus, self.mask_minus
        if not np.all(plus | minus):
            raise ValueError("grid places nodes on the interface x_n = 0")
        return [np.flatnonzero(m) for m in (plus, minus) if np.any(m)]

    @property
    def id(self) -> str:
        cells = "x".join(str(s) for s in self.shape)
        extent = "_".join(f"{lo:g}:{hi:g}" for lo, hi in self.box)
        return f"{self.dim}d_N{cells}_box{extent}"

    def mirror_index(self) -> np.ndarray:
        """Permutation sending node (x', x_n) to node (x', -x_n).

        Requires the box to be symmetric across the interface.
        """
        lo, hi = self.box[-1]
        if abs(lo + hi) > 1e-12 * max(1.0, abs(hi)):
            raise ValueError("mirror index needs a box symmetric across x_n = 0")
        size = len(self.nodes)
        multi = list(np.unravel_index(np.arange(size), self.shape))
        multi[-1] = self.shape[-1] - 1 - multi[-1]
        return np.ravel_multi_index(tuple(multi), self.shape)


def check_grid(n: int, box, N: int):
    """The box as an (n, 2) array and N as an int, or a ValueError naming
    the rule they break.

    N must be at least 4; when the box crosses the interface N must also
    keep every node off x_n = 0 (even N does, for a symmetric box).
    """
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape != (n, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must be n pairs lo < hi")
    N = int(N)
    if N < 4:
        raise ValueError("N must be at least 4")
    lo, hi = box[-1]
    dx = (hi - lo) / N
    normal = lo + (np.arange(N) + 0.5) * dx
    if lo < 0.0 < hi and np.any(np.abs(normal) < 1e-12 * dx):
        raise ValueError("grid places nodes on the interface; use even N")
    return box, N


def make_grid(n: int, box, N: int) -> QuadratureGrid:
    """Cell-center quadrature grid with N cells per axis (see `check_grid`)."""
    box, N = check_grid(n, box, N)
    shape = (N,) * n
    axes, spacing = [], []
    for j in range(n):
        dx = (box[j, 1] - box[j, 0]) / N
        axes.append(box[j, 0] + (np.arange(N) + 0.5) * dx)
        spacing.append(dx)
    spacing = np.asarray(spacing)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return QuadratureGrid(
        box=box,
        shape=shape,
        axes=axes,
        nodes=mesh.reshape(-1, n),
        spacing=spacing,
        weight=float(np.prod(spacing)),
    )


@dataclass
class OperatorMatrix:
    """Kernel samples on the two same-half node blocks plus the quadrature weight.

    `blocks` holds raw kernel values K(x_i, x_j) on the plus-plus and the
    minus-minus node pairs, in the order of `grid.half_indices()`.  The
    kernel gate makes every cross-half value vanish, so no array holds
    one: the discrete operator on l2(grid, w) is block-diagonal, its
    blocks are blocks * w, and its singular values are the union of
    theirs.  `kernel` and `matrix` build the whole M x M array, with
    +0.0 cross-half entries, for the consumers that read it.

    `cores` holds, per block, the sorted positions of its support core:
    the block is exactly zero on every pair of positions outside it, and
    `singular_values` reads only the core's rows and columns (see
    `nrlab.spectra`).  A commutator's core is where b differs from its
    most frequent value on the half; by default (the Riesz operator) it
    is every position.
    """

    blocks: list
    weight: float
    grid: QuadratureGrid
    meta: dict = field(default_factory=dict)
    cores: list = None

    def __post_init__(self):
        self.blocks = [np.asarray(B, dtype=float) for B in self.blocks]
        sizes = [(len(idx), len(idx)) for idx in self.grid.half_indices()]
        if [B.shape for B in self.blocks] != sizes:
            raise ValueError("blocks inconsistent with the grid's half sizes")
        if not all(np.all(np.isfinite(B)) for B in self.blocks):
            raise ValueError("non-finite entries in matrix")
        if self.cores is None:
            self.cores = [np.arange(m) for m, _ in sizes]
        self.cores = [np.asarray(core) for core in self.cores]
        if len(self.cores) != len(self.blocks):
            raise ValueError("one core per block required")
        for core, (m, _) in zip(self.cores, sizes):
            if core.ndim != 1 or core.dtype.kind not in "iu" or np.any(np.diff(core) <= 0):
                raise ValueError("each core must be a sorted 1-d array of distinct positions")
            if core.size and (core[0] < 0 or core[-1] >= m):
                raise ValueError("core positions outside the block")

    @property
    def kernel(self) -> np.ndarray:
        m = len(self.grid.nodes)
        full = np.zeros((m, m))
        for idx, B in zip(self.grid.half_indices(), self.blocks):
            full[np.ix_(idx, idx)] = B
        return full

    @property
    def matrix(self) -> np.ndarray:
        return self.kernel * self.weight


@dataclass
class Symbol:
    """Closed-form symbol b with a degeneracy tag.

    kind "perhalf-constant" marks controls (constant on each open half)
    whose commutator vanishes identically; studies report them but never
    divide by their zero norms.
    """

    name: str
    func: Callable
    kind: str = "generic"

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


def _row_blocks(total: int, block: int = 256):
    """Row chunks of one assembly.  `riesz_kernel` holds about ten
    temporaries of shape (chunk rows, half size); with 256-row chunks in
    place of 512 the peak resident memory of `ratio-study --grid 32,40`
    fell from about 77 to 65 MiB (2 vCPUs, numpy 2.4), with the same
    values."""
    for start in range(0, total, block):
        yield start, min(start + block, total)


def assemble_riesz(ell: int, grid: QuadratureGrid) -> OperatorMatrix:
    """Same-half blocks of K_ell(x_i, x_j) w with zero diagonal.

    The kernel does not depend on the symbol, so one operator per grid
    serves every commutator assembled on it.  First-order quadrature
    only: without the commutator factor the principal-value singularity
    is not resolved by the midpoint rule.
    """
    params = KernelParams(grid.dim, ell)
    blocks = []
    for idx in grid.half_indices():
        xh = grid.nodes[idx]
        block = np.empty((len(idx), len(idx)))
        for i0, i1 in _row_blocks(len(idx)):
            block[i0:i1] = riesz_kernel(params, xh[i0:i1, None, :], xh[None, :, :], singular="zero")
        blocks.append(block)
    return OperatorMatrix(blocks, grid.weight, grid, {"symbol": "", "ell": ell, "grid": grid.id})


def assemble_commutator(b, riesz: OperatorMatrix) -> OperatorMatrix:
    """Blocks of (b(x_i) - b(x_j)) K_ell(x_i, x_j) w, zero diagonal, from
    the Riesz operator of the grid (`assemble_riesz`).

    Exactly zero for per-half-constant b: the kernel gate kills pairs in
    distinct halves and b(x) - b(y) is identically zero within one half.
    Each block's core is where b differs from its most frequent value on
    the half, so a symbol on a constant background has a narrow core and
    a per-half constant an empty one.
    """
    grid = riesz.grid
    x = grid.nodes
    bv = np.asarray(b(x) if callable(b) else b, dtype=float)
    if bv.shape != (len(x),):
        raise ValueError("symbol must evaluate to one value per node")
    blocks, cores = [], []
    for idx, K in zip(grid.half_indices(), riesz.blocks):
        bh = bv[idx]
        block = bh[:, None] - bh[None, :]
        block *= K
        blocks.append(block)
        values, counts = np.unique(bh, return_counts=True)
        cores.append(np.flatnonzero(bh != values[np.argmax(counts)]))
    meta = {"symbol": getattr(b, "name", "symbol"), "ell": riesz.meta["ell"], "grid": grid.id}
    return OperatorMatrix(blocks, riesz.weight, grid, meta, cores)


def _heat_1d(t: float, d: np.ndarray) -> np.ndarray:
    return np.exp(-(d**2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def _interval_neumann_1d(t: float, x: np.ndarray, y: np.ndarray, a: float, b: float) -> np.ndarray:
    """Heat kernel on [a, b] with reflecting ends, by the method of images.

    Images are summed until the leftover Gaussian mass is below e^-25,
    so constants are preserved to ~1e-11 at any t.
    """
    length = b - a
    reach = int(np.ceil(10.0 * np.sqrt(t) / (2.0 * length))) + 1
    diff = x[:, None] - y[None, :]
    summ = x[:, None] + y[None, :] - 2.0 * a
    out = np.zeros_like(diff)
    for i in range(-reach, reach + 1):
        out += _heat_1d(t, diff + 2.0 * i * length)
        out += _heat_1d(t, summ + 2.0 * i * length)
    return out


def heat_axis_matrices(t: float, grid: QuadratureGrid, kernel: str = "neumann") -> list:
    """Per-axis midpoint-rule matrices of the heat semigroup at time t.

    They do not depend on the field, so a caller that evolves several
    fields builds them once and hands each field to `apply_axis_matrices`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if kernel not in ("neumann", "full", "neumann-box"):
        raise ValueError("kernel must be 'neumann', 'full' or 'neumann-box'")
    mats = []
    for j in range(grid.dim):
        c = grid.axes[j]
        dx = grid.spacing[j]
        last = j == grid.dim - 1
        if kernel == "full" or (kernel == "neumann" and not last):
            mats.append(_heat_1d(t, c[:, None] - c[None, :]) * dx)
        elif kernel == "neumann" and last:
            direct = _heat_1d(t, c[:, None] - c[None, :])
            reflected = _heat_1d(t, c[:, None] + c[None, :])
            gate = (c[:, None] * c[None, :] >= 0.0).astype(float)
            mats.append((direct + _REFLECTED_SIGN * reflected) * gate * dx)
        elif kernel == "neumann-box" and not last:
            mats.append(_interval_neumann_1d(t, c, c, grid.box[j, 0], grid.box[j, 1]) * dx)
        else:
            # interface splits the axis; reflecting walls on both sides
            mat = np.zeros((c.size, c.size))
            pos, neg = c > 0.0, c < 0.0
            if np.any(pos):
                mat[np.ix_(pos, pos)] = _interval_neumann_1d(t, c[pos], c[pos], 0.0, grid.box[j, 1])
            if np.any(neg):
                mat[np.ix_(neg, neg)] = _interval_neumann_1d(t, c[neg], c[neg], grid.box[j, 0], 0.0)
            mats.append(mat * dx)
    return mats


def apply_axis_matrices(values: np.ndarray, mats: list, grid: QuadratureGrid) -> np.ndarray:
    """Contract one field with per-axis matrices, one tensordot per axis."""
    out = values.reshape(grid.shape)
    for j, mat in enumerate(mats):
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, j)), 0, j)
    return out.reshape(-1)


def apply_semigroup(f: SampledField, t: float, grid: QuadratureGrid, kernel: str = "neumann") -> SampledField:
    """Midpoint-rule heat semigroup at time t, factored axis by axis.

    kernel="neumann" uses the reflected-and-gated kernel (independent
    Neumann evolutions on the two half-spaces); kernel="full" uses the
    free heat kernel on the whole box, which is what the even-extension
    identity compares against.  kernel="neumann-box" additionally
    reflects at the outer box walls, so per-half constants are fixed
    points at every t; the Besov heat route uses it to keep the norm of
    a constant at zero instead of at box-truncation size.
    """
    mats = heat_axis_matrices(t, grid, kernel)
    if f.values.shape != (len(grid.nodes),):
        raise ValueError("field does not match grid")
    return SampledField(grid, apply_axis_matrices(f.values, mats, grid))


def export_matrix(op: OperatorMatrix, path):
    """Binary export: 32-byte header (magic, n, N, ell), then the whole
    weighted matrix, cross-half entries +0.0, as column-major float64;
    metadata sidecar at <path>.cfg."""
    path = str(path)
    mat = op.matrix
    n = op.grid.dim
    header = struct.pack("<8sqqq", _MAGIC, n, op.grid.shape[0], int(op.meta.get("ell", 0)))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(mat.astype("<f8").tobytes(order="F"))
    sidecar = {
        "magic": "NRLMAT1",
        "n": n,
        "N": op.grid.shape[0],
        "ell": int(op.meta.get("ell", 0)),
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "weight": op.weight,
        "symbol": str(op.meta.get("symbol", "")),
        "grid": op.grid.id,
        "box": [float(v) for v in op.grid.box.reshape(-1)],
    }
    write_kv_file(path + ".cfg", sidecar)


def read_matrix(path):
    """Inverse of export_matrix: returns (matrix, header dict, sidecar dict)."""
    path = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, n, N, ell = struct.unpack_from("<8sqqq", raw, 0)
    if magic != _MAGIC:
        raise ValueError("bad magic in matrix file")
    sidecar = read_kv_file(path + ".cfg")
    rows, cols = int(sidecar["rows"]), int(sidecar["cols"])
    body = np.frombuffer(raw, dtype="<f8", offset=32, count=rows * cols)
    matrix = body.reshape((rows, cols), order="F").copy()
    return matrix, {"n": int(n), "N": int(N), "ell": int(ell)}, sidecar


def ball_microgrid(ball: Ball, points_per_axis: int = 8):
    """Midpoint nodes of the bounding cube kept inside the half-space ball.

    Returns (nodes, weight-per-node).  Used by statistics whose regions
    (radius side/12 witness balls) are far below the study grid spacing.
    """
    n = ball.center.size
    r = ball.radius
    axes = [
        c - r + (np.arange(points_per_axis) + 0.5) * (2.0 * r / points_per_axis)
        for c in ball.center
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = ball.contains(mesh)
    if not np.any(keep):
        raise ValueError("micro-grid missed the ball; increase points_per_axis")
    return mesh[keep], (2.0 * r / points_per_axis) ** n
