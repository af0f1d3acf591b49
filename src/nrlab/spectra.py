"""Singular spectra, Schatten and weak Schatten norms, mixed kernel norms.

Spectra are taken block by block.  An assembled Neumann operator is
stored as its plus-plus and minus-minus blocks (the kernel gate kills
cross-half pairs), and its singular values are the union of theirs; a
plain matrix is one block.

Each block is reduced to its support core first.  A commutator block
(b(x_i) - b(x_j)) K(x_i, x_j) w vanishes wherever b takes its background
value at both nodes: off the core S (the nodes where b differs from its
most frequent value on the half), the factor b_i - b_j is exactly 0.0,
so with C the rest of the block B_CC = 0 K_CC = +-0.0.  Then, with
B_CS = Q1 R1 and B_SC^T = Q2 R2 (QR, orthonormal columns),

    [[B_SS, B_SC], [B_CS, 0]] = diag(I, Q1) [[B_SS, R2^T], [R1, 0]] diag(I, Q2^T),

an orthogonal equivalence: B has the singular values of the small
matrix H on the right, of size s + min(s, m - s), and zeros for the
rest.  Only B_SS, B_CS and B_SC are read and weighted, so a block costs
O(m s^2) for the two QRs and O((2s)^3) for H's spectrum instead of
O(m^3).  An exactly symmetric block (the commutator for ell < n, where
K_ell(y,x) = -K_ell(x,y) bit for bit) has a symmetric H (R2 = R1), and
its singular values are the absolute eigenvalues of H (`eigvalsh`); any
other H goes through a values-only SVD.  An empty core (a per-half
constant) gives exact zeros; a plain matrix, or the Riesz operator, has
every position in its core, and H is the block itself.

The weak-norm upper bound implemented by `russo_bound` is the kernel
factorization

    ||T||_{S^{p,oo}} <= ||K||_{L^p, L^{p',oo}}^{1/2} ||K*||_{L^p, L^{p',oo}}^{1/2}

for p > 2, K*(x,y) = conj(K(y,x)).  On a finite quadrature grid both
mixed norms are computed exactly (the outer weak norm by sorting), so
the only slack against the assembled matrix is quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSpectrum",
    "abs_power",
    "singular_values",
    "schatten_norm",
    "weak_schatten_norm",
    "mixed_norm",
    "russo_bound",
]


@dataclass
class SingularSpectrum:
    """Descending non-negative singular values."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("empty spectrum")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("singular values must be finite and non-negative")
        self.values = np.sort(vals)[::-1]

    def __len__(self):
        return self.values.size


def abs_power(x, p: float) -> np.ndarray:
    """|x|**p, bit for bit, with the power taken only on the non-zero
    entries: pow(0, p) = +0.0 for p > 0, and the kernels and differences
    this is applied to are mostly exact zeros."""
    out = np.abs(x)
    nz = out != 0.0
    out[nz] = out[nz] ** p
    return out


def _block_singular_values(block: np.ndarray, weight: float, rows, cols) -> np.ndarray:
    """Singular values of weight * block, min(block.shape) of them, given
    the core `rows` and `cols`: block[i, j] = 0 whenever row i is outside
    `rows` and column j is outside `cols`.  See the module docstring for
    the reduction."""
    rest_rows, rest_cols = (
        np.setdiff1d(np.arange(size), core, assume_unique=True) for size, core in zip(block.shape, (rows, cols))
    )
    core, below, right = (
        block[np.ix_(i, j)] * weight for i, j in ((rows, cols), (rest_rows, cols), (rows, rest_cols))
    )
    if not all(np.all(np.isfinite(piece)) for piece in (core, below, right)):
        raise ValueError("non-finite entries in matrix")
    r1 = np.linalg.qr(below, mode="r")
    if np.array_equal(core, core.T) and np.array_equal(right, below.T):
        h = np.block([[core, r1.T], [r1, np.zeros((len(r1), len(r1)))]])
        vals = np.abs(np.linalg.eigvalsh(h))
    else:
        r2 = np.linalg.qr(right.T, mode="r")
        h = np.block([[core, r2.T], [r1, np.zeros((len(r1), len(r2)))]])
        vals = np.linalg.svd(h, compute_uv=False)
    return np.concatenate([vals, np.zeros(min(block.shape) - vals.size)])


def singular_values(M) -> SingularSpectrum:
    """Descending singular values of a dense matrix or an OperatorMatrix.

    An OperatorMatrix is read block by block, each reduced to its `cores`;
    a plain matrix is one block with every row and column in its core.
    See the module docstring for how each block is handled.
    """
    if hasattr(M, "cores"):
        blocks = [(B, M.weight, core, core) for B, core in zip(M.blocks, M.cores)]
    else:
        A = np.asarray(M, dtype=float)
        if A.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        blocks = [(A, 1.0, np.arange(A.shape[0]), np.arange(A.shape[1]))]
    return SingularSpectrum(np.concatenate([_block_singular_values(*b) for b in blocks]))


def _spectrum_values(s) -> np.ndarray:
    if isinstance(s, SingularSpectrum):
        return s.values
    arr = np.asarray(s, dtype=float)
    if arr.ndim == 2 or hasattr(s, "matrix"):
        return singular_values(s).values
    return SingularSpectrum(arr).values


def schatten_norm(s, p: float) -> float:
    """(sum s_k^p)^(1/p); a norm for p >= 1, a quasi-norm for 0 < p < 1."""
    if p <= 0:
        raise ValueError("p must be positive")
    vals = _spectrum_values(s)
    top = float(vals[0])
    if top == 0.0:
        return 0.0
    # factor out s_1 so large p does not underflow
    return top * float(np.sum((vals / top) ** p)) ** (1.0 / p)


def weak_schatten_norm(s, p: float) -> float:
    """sup_k k^(1/p) s_k over the descending rearrangement."""
    if p <= 0:
        raise ValueError("p must be positive")
    vals = _spectrum_values(s)
    ranks = np.arange(1, vals.size + 1, dtype=float)
    return float(np.max(ranks ** (1.0 / p) * vals))


def _blocks_and_weights(K, row_weights, col_weights):
    """The diagonal blocks of K with row and column weights over all of them.

    An OperatorMatrix gives its same-half blocks and, by default, its
    quadrature weight; a list is taken as the diagonal blocks of a
    block-diagonal kernel; anything else is one block.  Weights are
    scalars or arrays over the concatenated rows (columns) of the blocks.
    """
    if hasattr(K, "blocks"):
        blocks = K.blocks
        if row_weights is None:
            row_weights = K.weight
        if col_weights is None:
            col_weights = K.weight
    elif isinstance(K, list):
        blocks = [np.asarray(B, dtype=float) for B in K]
    else:
        blocks = [np.asarray(K, dtype=float)]
    if not blocks or any(B.ndim != 2 for B in blocks):
        raise ValueError("expected a kernel sampled on grid x grid")
    rows = sum(B.shape[0] for B in blocks)
    cols = sum(B.shape[1] for B in blocks)
    wx = np.broadcast_to(np.asarray(1.0 if row_weights is None else row_weights, float), (rows,))
    wy = np.broadcast_to(np.asarray(1.0 if col_weights is None else col_weights, float), (cols,))
    return blocks, wx, wy


def mixed_norm(K, p: float, mode: str = "weak", row_weights=None, col_weights=None) -> float:
    """|| ||K(x,y)||_{L^p(dx)} ||_{L^{p'}(dy)} with strong or weak outer norm.

    Rows of K index x, columns index y.  mode="weak" computes the outer
    L^{p',oo} quasi-norm sup_t t * mu{y : inner(y) > t}^{1/p'} exactly:
    with the inner values sorted in decreasing order g_1 >= g_2 >= ...
    and W_j the cumulative weight, the sup equals max_j g_j W_j^{1/p'}.

    K may be a list of diagonal blocks, or an OperatorMatrix (its two
    same-half blocks): a column meets only its own block, so the inner
    norms are taken block by block and concatenated before the one outer
    norm.  With uniform column weights the weak norm equals that of the
    whole kernel with its zero cross-half entries.

    Requires p > 2 (so p' < 2, the range of the factorization bound).
    """
    if p <= 2:
        raise ValueError("mixed norm requires p > 2")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    blocks, wx, wy = _blocks_and_weights(K, row_weights, col_weights)
    inner = np.concatenate(_inner_norms(blocks, p, wx))
    if mode == "strong":
        q = p / (p - 1.0)
        return float(np.sum(inner**q * wy) ** (1.0 / q))
    return _weak_outer_norm(inner, p, wy)


def _inner_norms(blocks, p: float, wx) -> list:
    """Per block, the weighted L^p(dx) norm of each column; wx runs over
    the concatenated rows of the blocks."""
    inner = []
    row_ends = np.cumsum([B.shape[0] for B in blocks])
    for B, bx in zip(blocks, np.split(wx, row_ends[:-1])):
        terms = abs_power(B, p)
        terms *= bx[:, None]
        inner.append(np.sum(terms, axis=0) ** (1.0 / p))
    return inner


def _weak_outer_norm(inner, p: float, wy) -> float:
    """The L^{p',oo} quasi-norm of the inner norms under column weights wy,
    by sorting (see `mixed_norm`)."""
    q = p / (p - 1.0)
    order = np.argsort(inner)[::-1]
    g = inner[order]
    cum = np.cumsum(wy[order])
    if g[0] == 0.0:
        return 0.0
    return float(np.max(g * cum ** (1.0 / q)))


def russo_bound(Kc, p: float, row_weights=None, col_weights=None) -> float:
    """Geometric mean of the weak mixed norms of the kernel and its adjoint.

    Kc is the scalar commutator kernel (b(x) - b(y)) K(x,y) sampled on
    grid x grid without quadrature weights, as an array, a list of
    diagonal blocks or an OperatorMatrix (read block by block, see
    `mixed_norm`); the weights enter through the mixed-norm integrals.
    Returns the right-hand side of the factorization bound; p > 2
    required.
    """
    if p <= 2:
        raise ValueError("russo bound requires p > 2")
    blocks, wx, wy = _blocks_and_weights(Kc, row_weights, col_weights)
    direct = mixed_norm(blocks, p, "weak", row_weights=wx, col_weights=wy)
    adjoint = mixed_norm([B.T for B in blocks], p, "weak", row_weights=wy, col_weights=wx)
    return float(np.sqrt(direct * adjoint))
