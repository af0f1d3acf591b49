"""Quadrature grids and dense discretizations of the half-space operators.

Cell-center (midpoint) quadrature throughout: on a box with N cells per
axis every node carries the same weight w = cell volume, no node ever
sits on the interface x_n = 0, and matrix entries carry one factor of w
so the discrete operator acts on l2(grid, w).  Singular-kernel matrices
use a zero diagonal (principal-value convention; for the commutator the
factor b(x)-b(y) vanishes there anyway).  A commutator is stored as the
support-core strips of its two same-half blocks: a block is exactly
zero off the rows and columns of the nodes where b leaves its
background value on the half, so the kernel is evaluated once on those
rows and columns only, and no m x m array is formed (see `OperatorMatrix`).
The semigroup's axis matrices do not depend on the symbol: callers build
them once per grid for a whole array of times and apply them to every
symbol's field in one batched contraction.

The semigroup is applied in factored form, one axis at a time, which is
algebraically identical to the dense midpoint-rule matrix but costs
O(n N^{n+1}) instead of O(N^{2n}).
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
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
    "support_core",
    "assemble_commutator",
    "apply_semigroup",
    "apply_axis_matrices",
    "heat_axis_matrices",
    "export_matrix",
    "read_matrix",
    "ball_microgrid",
    "row_blocks",
]

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

    Grids have n >= 2 axes: every kernel and symbol family is at least
    two-dimensional.  N must be an integer (a bool, a float or a string
    is refused, not truncated or parsed) and at least 4; when the box
    crosses the interface N must also keep every node off x_n = 0 (even
    N does, for a symmetric box).
    """
    if n < 2:
        raise ValueError(f"grids need n >= 2 axes, got n = {n}")
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape != (n, 2) or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must be n pairs lo < hi")
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise ValueError(f"N must be an int, got {N!r}")
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
    """A commutator on l2(grid, w) stored as the support-core strips of
    its two same-half blocks.

    The kernel gate makes every cross-half value vanish, so the discrete
    operator is block-diagonal, with one m x m block B per half in the
    order of `grid.half_indices()`; its singular values are the union of
    the blocks'.  Entries are raw kernel values, and the operator is
    B * w with w = `weight` (the grid's).  `ell` is the Riesz index and
    `symbol` the name of the commutator's symbol.

    Per block, `cores` holds a boolean mask of its support core S: the
    block is exactly zero on every pair of positions outside it.  Each
    entry is stored once: `row_strips` holds B[S, :] (s x m), and
    `col_strips` B[~S, S] ((m - s) x s), or None where the block is
    symmetric by construction, B[~S, S] = B[S, ~S]^T.  The core is where
    b differs from its most frequent value on the half, so a per-half
    constant holds an empty row strip.

    `blocks`, `kernel` and `matrix` are dense views for matrix export,
    verify's S^4 trace check and tests; no study or audit reads them.
    They scatter the strips, and every other entry is +0.0.
    """

    grid: QuadratureGrid
    ell: int
    symbol: str
    cores: list
    row_strips: list
    col_strips: list

    def __post_init__(self):
        sizes = [len(idx) for idx in self.grid.half_indices()]
        self.cores = [np.asarray(core) for core in self.cores]
        if [(core.dtype, core.shape) for core in self.cores] != [(np.dtype(bool), (m,)) for m in sizes]:
            raise ValueError("need one core per block: a boolean mask of the block's length")
        self.row_strips = [np.asarray(R, dtype=float) for R in self.row_strips]
        self.col_strips = [None if C is None else np.asarray(C, dtype=float) for C in self.col_strips]
        shapes = [(R.shape, C if C is None else C.shape) for R, C in zip(self.row_strips, self.col_strips)]
        wanted = [((s, m), (m - s, s)) for s, m in ((np.count_nonzero(core), core.size) for core in self.cores)]
        if len(shapes) != len(wanted) or any(r != w or c not in (None, v) for (r, c), (w, v) in zip(shapes, wanted)):
            raise ValueError("need one row strip (s x m) and one column block ((m - s) x s) or None per core")
        if not all(np.all(np.isfinite(A)) for A in self.row_strips + self.col_strips if A is not None):
            raise ValueError("non-finite entries in matrix")

    @property
    def weight(self) -> float:
        return self.grid.weight

    @property
    def blocks(self) -> list:
        out = []
        for core, R, C in zip(self.cores, self.row_strips, self.col_strips):
            B = np.zeros((core.size, core.size))
            B[core] = R
            B[np.ix_(~core, core)] = R[:, ~core].T if C is None else C
            out.append(B)
        return out

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

    support is a tuple of (centre, radius) balls outside whose union the
    symbol is constant on each open half, or None when that is not known.
    A bump carries its balls, a per-half constant the empty tuple.  The
    extension route and the oscillation statistic read it to skip points
    where the symbol adds exactly nothing, so it must never be too small;
    it is checked here for its form (positive finite radii, finite
    centres of one length n >= 2, empty for a per-half constant), not
    against func.
    """

    name: str
    func: Callable
    kind: str = "generic"
    support: tuple | None = None

    def __post_init__(self):
        if self.support is None:
            return
        balls = tuple((tuple(map(float, centre)), float(radius)) for centre, radius in self.support)
        if balls and self.kind == "perhalf-constant":
            raise ValueError(f"support of a perhalf-constant symbol must be empty, got {balls}")
        if not all(np.isfinite(radius) and radius > 0.0 for _, radius in balls):
            raise ValueError(f"support radii must be finite and positive, got {[r for _, r in balls]}")
        lengths = sorted({len(centre) for centre, _ in balls})
        if len(lengths) > 1 or lengths and lengths[0] < 2:
            raise ValueError(f"support centres need one common length n >= 2, got lengths {lengths}")
        if not all(np.all(np.isfinite(centre)) for centre, _ in balls):
            raise ValueError(f"support centres must be finite, got {[c for c, _ in balls]}")
        self.support = balls

    def __call__(self, x):
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)


def row_blocks(rows: int, cols: int):
    """Row chunks of one kernel evaluation of rows x cols pairs, each of
    at most 2^16 pairs (at least one row).  `riesz_kernel` holds about
    nine temporaries of a chunk's shape, so a chunk holds about 4.5 MiB
    whatever the grid."""
    step = max(1, 2**16 // max(cols, 1))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def _kernel_strip(params: KernelParams, x: np.ndarray, y: np.ndarray, bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """K_ell(x_i, y_j) with zero at coincident pairs, times b(x_i) - b(y_j)
    from the symbol's values bx and by, in row chunks."""
    out = np.empty((len(x), len(y)))
    for i0, i1 in row_blocks(len(x), len(y)):
        out[i0:i1] = riesz_kernel(params, x[i0:i1, None, :], y[None, :, :], singular="zero")
        out[i0:i1] *= bx[i0:i1, None] - by[None, :]
    return out


def support_core(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the nodes where `values`, a symbol's values on one
    half, differ from their most frequent value (the lowest one on a
    tie).  Off the mask every pair of nodes carries the same value, so
    b(x) - b(y) is exactly zero there; a per-half constant has an empty
    mask."""
    levels, counts = np.unique(values, return_counts=True)
    return values != levels[np.argmax(counts)]


def assemble_commutator(b, ell: int, grid: QuadratureGrid) -> OperatorMatrix:
    """Core strips of (b(x_i) - b(x_j)) K_ell(x_i, x_j) w, zero diagonal.

    Each block's core S is where b differs from its most frequent value
    on the half (`support_core`), so a symbol on a constant background
    has a narrow core and a per-half constant an empty one.  Off the
    core both nodes carry that value and the entry is exactly zero, so
    the kernel is evaluated only on the core rows: the row strip is
    (b_S - b) K_ell(x_S, x).  For ell < n no column block is stored:
    there K_ell(y, x) = -K_ell(x, y) (the numerator x_ell - y_ell changes
    sign, the denominators do not), bit for bit except that x_ell = y_ell
    gives -0.0 both ways, so the block is exactly symmetric up to the
    sign of its zeros, as is the zero block of an empty core.  For ell = n
    the reflected numerator x_n + y_n does not change sign, and the
    column block (b_C - b_S) K_n(x_C, x_S) is evaluated too.

    Exactly zero for per-half-constant b: the kernel gate kills pairs in
    distinct halves and b(x) - b(y) is identically zero within one half.
    """
    x = grid.nodes
    bv = np.asarray(b(x) if callable(b) else b, dtype=float)
    if bv.shape != (len(x),):
        raise ValueError("symbol must evaluate to one value per node")
    params = KernelParams(grid.dim, ell)
    cores, rows, cols = [], [], []
    for idx in grid.half_indices():
        xh, bh = x[idx], bv[idx]
        core = support_core(bh)
        cores.append(core)
        rows.append(_kernel_strip(params, xh[core], xh, bh[core], bh))
        symmetric = ell < grid.dim or not core.any()
        cols.append(None if symmetric else _kernel_strip(params, xh[~core], xh[core], bh[~core], bh[core]))
    return OperatorMatrix(grid, ell, getattr(b, "name", "symbol"), cores, rows, cols)


def _heat_1d(t, d: np.ndarray) -> np.ndarray:
    return np.exp(-(d**2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def _cell_heat_1d(t: np.ndarray, x: np.ndarray, walls: list) -> np.ndarray:
    """Heat kernels between the nodes x of one cell, by the method of
    images in its reflecting `walls` (none, one, or both ends a < b), as
    a (T, k, k) stack for the T times t.

    Two walls sum images until the leftover Gaussian mass is below
    e^-25, so constants are preserved to ~1e-11 at any t.  An image
    depends on a pair of nodes only through their difference (direct)
    or their sum (reflected), and a cell of k nodes has 2k - 1 distinct
    ones of each in exact arithmetic, a few more once rounded: every
    image's Gaussian is evaluated once per distinct rounded gap and
    time, in one (T, images, gaps) array, and gathered onto the k x k
    pairs.  The image count depends on t, and each time
    gets exactly its own: an image beyond a time's reach is exactly 0.0
    there, which adds nothing.  The gathered images are added one at a
    time, i from -reach to reach, direct image then reflected, so every
    slice is the one-time sum bit for bit; a reduction over the image
    axis would sum pairwise and change the last bits.
    """
    diff = x[:, None] - x[None, :]
    ts = t[:, None, None]
    if not walls:
        return _heat_1d(ts, diff)
    summ = x[:, None] + x[None, :] - 2.0 * walls[0]
    if len(walls) == 1:
        return _heat_1d(ts, diff) + _heat_1d(ts, summ)
    length = walls[1] - walls[0]
    reach = np.ceil(10.0 * np.sqrt(t) / (2.0 * length)).astype(int) + 1
    images = np.arange(-reach.max(), reach.max() + 1)
    beyond = np.abs(images) > reach[:, None]
    terms = []
    for gaps in (diff, summ):
        distinct, inverse = np.unique(gaps, return_inverse=True)
        values = _heat_1d(ts, distinct + 2.0 * images[:, None] * length)
        values[beyond] = 0.0
        terms.append((values, inverse.reshape(gaps.shape)))
    acc = np.zeros((t.size, *diff.shape))
    for i in range(images.size):
        for values, inverse in terms:
            acc += values[:, i, inverse]
    return acc


def heat_axis_matrices(t, grid: QuadratureGrid, kernel: str = "neumann") -> list:
    """Per-axis midpoint-rule matrices of the heat semigroup at the times
    t, a scalar or an array: per axis a (*t.shape, N_j, N_j) stack, so a
    scalar t gives one (N_j, N_j) matrix.  Each slice is the one-time
    matrix bit for bit.

    Each axis has reflecting walls: none for "full"; x_n = 0 on the last
    axis for "neumann"; the box faces for "neumann-box", and x_n = 0 too
    where it lies strictly inside the box.  The walls cut the axis into
    cells, and each cell evolves on its own.  The matrices do not depend
    on the field, so a caller that evolves several fields builds them
    once and hands all the fields to `apply_axis_matrices`.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    if kernel not in ("neumann", "full", "neumann-box"):
        raise ValueError("kernel must be 'neumann', 'full' or 'neumann-box'")
    times = t.reshape(-1)
    mats = []
    for j, c in enumerate(grid.axes):
        lo, hi = grid.box[j]
        last = j == grid.dim - 1
        if kernel == "full":
            walls = []
        elif kernel == "neumann":
            walls = [0.0] if last else []
        else:
            walls = [lo, 0.0, hi] if last and lo < 0.0 < hi else [lo, hi]
        edges = [-np.inf, *walls, np.inf]
        mat = np.zeros((times.size, c.size, c.size))
        for a, b in zip(edges, edges[1:]):
            i0, i1 = np.searchsorted(c, (a, b))
            mat[:, i0:i1, i0:i1] = _cell_heat_1d(times, c[i0:i1], [w for w in (a, b) if np.isfinite(w)])
        mats.append((mat * grid.spacing[j]).reshape(*t.shape, c.size, c.size))
    return mats


def apply_axis_matrices(values: np.ndarray, mats: list, grid: QuadratureGrid) -> np.ndarray:
    """Contract fields (..., m) with per-axis matrices (..., N_j, N_j),
    one batched matmul per axis; the leading shapes broadcast.

    Each axis is contracted on the strided view that puts it second to
    last, the view `tensordot` would read, so every field's result is a
    one-field contraction bit for bit.  A contiguous copy of the view
    would change the operand layout BLAS sees, and with it the rounding.
    """
    k = grid.dim
    out = values.reshape(*values.shape[:-1], *grid.shape)
    for j, mat in enumerate(mats):
        # the view keeps k - 2 grid axes in front of the contracted one;
        # a unit axis for each lines the matrices' leading axes up with
        # the fields'
        mat = np.expand_dims(mat, tuple(range(-k, -2)))
        out = np.moveaxis(mat @ np.moveaxis(out, j - k, -2), -2, j - k)
    return out.reshape(*out.shape[:-k], -1)


def apply_semigroup(f: SampledField, t: float, kernel: str = "neumann") -> SampledField:
    """Midpoint-rule heat semigroup at time t on the field's own grid,
    factored axis by axis (walls as in `heat_axis_matrices`).

    kernel="neumann" evolves the two half-spaces independently;
    kernel="full" is the free heat kernel on the whole box, which is what
    the even-extension identity compares against.  kernel="neumann-box"
    also reflects at the box faces, so per-half constants are fixed
    points at every t; the Besov heat route uses it to keep the norm of
    a constant at zero instead of at box-truncation size.
    """
    mats = heat_axis_matrices(t, f.grid, kernel)
    return SampledField(f.grid, apply_axis_matrices(f.values, mats, f.grid))


def export_matrix(op: OperatorMatrix, path):
    """Binary export: 32-byte header (magic, n, N, ell), then the whole
    weighted matrix, cross-half entries +0.0, as column-major float64;
    metadata sidecar at <path>.cfg.

    The column-major matrix is its transpose in row-major order, written
    in slabs of columns scattered from the dense `blocks`, so the M x M
    matrix is never held: the peak is the blocks, half of it."""
    path = str(path)
    m = len(op.grid.nodes)
    n = op.grid.dim
    header = struct.pack("<8sqqq", _MAGIC, n, op.grid.shape[0], op.ell)
    halves = op.grid.half_indices()
    blocks = op.blocks
    with open(path, "wb") as fh:
        fh.write(header)
        for j0, j1 in row_blocks(m, m):
            slab = np.zeros((j1 - j0, m))
            for idx, B in zip(halves, blocks):
                cols = np.flatnonzero((idx >= j0) & (idx < j1))
                slab[np.ix_(idx[cols] - j0, idx)] = B[:, cols].T * op.weight
            fh.write(slab.astype("<f8", copy=False).data)
    sidecar = {
        "magic": "NRLMAT1",
        "n": n,
        "N": op.grid.shape[0],
        "ell": op.ell,
        "rows": m,
        "cols": m,
        "weight": op.weight,
        "symbol": op.symbol,
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


def ball_microgrid(ball: Ball, points_per_axis: int):
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
