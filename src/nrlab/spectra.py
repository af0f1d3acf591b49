"""Singular spectra, Schatten and weak Schatten norms, mixed kernel norms.

Spectra are taken block by block.  An assembled Neumann operator is
block-diagonal, with a plus-plus and a minus-minus block (the kernel
gate kills cross-half pairs), and its singular values are the union of
theirs; a plain matrix is one block.

Each block is read from its support core.  A commutator block
(b(x_i) - b(x_j)) K(x_i, x_j) w vanishes wherever b takes its background
value at both nodes: off the core S (the nodes where b differs from its
most frequent value on the half), the factor b_i - b_j is exactly 0.0,
so with C the rest of the block B_CC = 0 K_CC = +-0.0.  An OperatorMatrix
stores only the row strip B[S, :] and the column block B_CS (if any).
Then, with B_CS = Q1 R1 and B_SC^T = Q2 R2 (QR, orthonormal columns),

    [[B_SS, B_SC], [B_CS, 0]] = diag(I, Q1) [[B_SS, R2^T], [R1, 0]] diag(I, Q2^T),

an orthogonal equivalence: B has the singular values of the small
matrix H on the right, of size s + min(s, m - s), and zeros for the
rest.  Only the gathered pieces are weighted, so a block costs O(m s^2)
for the QRs and O((2s)^3) for H's spectrum instead of O(m^3).  A block
stored without a column block (ell < n, or an empty core) is symmetric:
B_CS = B_SC^T is gathered from the row strip, R2 = R1, and the singular
values are the absolute eigenvalues of H (`eigvalsh`); any other H goes
through a values-only SVD.  An empty core (a per-half constant) gives
exact zeros; a plain matrix has every position in its core, H is the
matrix itself, and it is symmetric if it equals its transpose.

The weak-norm upper bound implemented by `russo_bound` is the kernel
factorization

    ||T||_{S^{p,oo}} <= ||K||_{L^p, L^{p',oo}}^{1/2} ||K*||_{L^p, L^{p',oo}}^{1/2}

for p > 2, K*(x,y) = conj(K(y,x)).  On a finite quadrature grid both
mixed norms are computed exactly (the outer weak norm by sorting), so
the only slack against the assembled matrix is quadrature error.

Each norm takes one input form: the Schatten norms a spectrum, the
mixed norms a list of diagonal kernel blocks and one quadrature weight.
A mixed norm is `column_norms` followed by an outer norm, so a caller
that needs several outer norms of the same columns makes one pass over
the blocks.  A column's terms are added row by row, top to bottom,
whatever the memory layout of its block, and exact zeros add nothing
to such a sum.  So `operator_column_norms` reads an OperatorMatrix's
column norms and its adjoint's from one pass over its strips, bit for
bit the dense blocks', and the upper audit forms no m x m block.
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
    "column_norms",
    "operator_column_norms",
    "weak_outer_norm",
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


def _block_singular_values(core, below, right) -> np.ndarray:
    """Singular values of the block [[core, right], [below, 0]], as many
    as the smaller side of it, from its weighted pieces B_SS, B_CS and
    B_SC (None for a symmetric block).  See the module docstring."""
    r1 = np.linalg.qr(below, mode="r")
    r2 = r1 if right is None else np.linalg.qr(right.T, mode="r")
    h = np.block([[core, r2.T], [r1, np.zeros((len(r1), len(r2)))]])
    vals = np.abs(np.linalg.eigvalsh(h)) if right is None else np.linalg.svd(h, compute_uv=False)
    size = min(len(core) + len(below), core.shape[1] + (len(below) if right is None else right.shape[1]))
    return np.concatenate([vals, np.zeros(size - vals.size)])


def _core_pieces(core, R, C, weight: float) -> tuple:
    """B_SS and B_SC from the row strip R and B_CS from the column block
    C, each gathered once and weighted in place; a symmetric block (C is
    None) gathers B_CS from R's transpose and has no B_SC (None)."""
    below, right = (R.T[~core], None) if C is None else (C.copy(), R[:, ~core])
    pieces = R[:, core], below, right
    for piece in pieces:
        if piece is not None:
            piece *= weight
    return pieces


def singular_values(M) -> SingularSpectrum:
    """Descending singular values of a dense matrix or an OperatorMatrix.

    An OperatorMatrix is read block by block from its core strips: B_SS
    and B_SC from the row strip, B_CS from the column block.  A plain
    matrix is one block whose core is every position.  See the module
    docstring for how each block is handled.
    """
    if hasattr(M, "row_strips"):
        pieces = (_core_pieces(core, R, C, M.weight) for core, R, C in zip(M.cores, M.row_strips, M.col_strips))
    else:
        A = np.asarray(M, dtype=float)
        if A.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("non-finite entries in matrix")
        pieces = [(A, A[:0], None if np.array_equal(A, A.T) else A[:, :0])]
    return SingularSpectrum(np.concatenate([_block_singular_values(*piece) for piece in pieces]))


def _spectrum_values(s) -> np.ndarray:
    """The descending values of a SingularSpectrum or of a 1-d array of
    singular values.  A matrix is refused rather than read: the spectrum
    would ravel it and take its entries for singular values."""
    if isinstance(s, SingularSpectrum):
        return s.values
    if np.ndim(s) != 1:
        raise ValueError(
            "expected a SingularSpectrum or a 1-d array of singular values; take a matrix's with singular_values"
        )
    return SingularSpectrum(s).values


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


def _row_order_norms(terms, p: float) -> np.ndarray:
    """(sum_i terms_ij)^(1/p) per column j, added row by row (see `column_norms`)."""
    sums = np.cumsum(terms, axis=0)[-1] if len(terms) else np.zeros(terms.shape[1])
    return sums ** (1.0 / p)


def column_norms(blocks, p: float, weight: float) -> list:
    """Per diagonal block, the L^p(weight) norm of each column:
    (sum_i |B_ij|^p weight)^(1/p) over the rows i of the block, added
    row by row, top to bottom (a cumulative sum: `np.sum` would add a
    contiguous axis pairwise).

    `blocks` is a non-empty list of 2-d kernels sampled without
    quadrature weights, and `weight` is the quadrature weight of every
    row and column.  Requires p > 2 (so p' < 2, the range of the
    factorization bound)."""
    if p <= 2:
        raise ValueError("mixed norm requires p > 2")
    if not isinstance(blocks, list) or not blocks or any(np.ndim(B) != 2 for B in blocks):
        raise ValueError("expected a non-empty list of 2-d kernel blocks")
    if np.ndim(weight) != 0 or not weight > 0:
        raise ValueError("weight must be one positive quadrature weight")
    inner = []
    for B in blocks:
        terms = abs_power(np.asarray(B, dtype=float), p)
        terms *= weight
        inner.append(_row_order_norms(terms, p))
    return inner


def _strip_norms(strip, p: float, weight: float) -> tuple:
    """Row-order norms of a strip's columns and rows, from one weighted power."""
    terms = abs_power(strip, p)
    terms *= weight
    return _row_order_norms(terms, p), _row_order_norms(terms.T, p)


def operator_column_norms(op, p: float) -> tuple:
    """`column_norms` of an OperatorMatrix's blocks and of their
    transposes, as two lists (direct, adjoint), bit for bit, from one
    weighted p-th power of each core strip.

    A core column is the column strip B[:, S], assembled in row order
    from B_SS and the column block; an off-core column is zero off the
    core rows, so it is the row strip's.  In a transposed block the
    strips swap roles.  Exact zeros add nothing to a row-by-row sum.
    A symmetric block's column strip (no column block) is not powered:
    its norms are the row strip's, swapped, bit for bit.
    """
    if p <= 2:
        raise ValueError("mixed norm requires p > 2")
    direct, adjoint = [], []
    for core, R, C in zip(op.cores, op.row_strips, op.col_strips):
        g, g_adj_core = _strip_norms(R, p, op.weight)
        if C is None:
            g_core, g_adj = g_adj_core, g.copy()
        else:
            strip = np.empty((core.size, len(R)))
            strip[core], strip[~core] = R[:, core], C
            g_core, g_adj = _strip_norms(strip, p, op.weight)
        g[core], g_adj[core] = g_core, g_adj_core
        direct.append(g)
        adjoint.append(g_adj)
    return direct, adjoint


def weak_outer_norm(g, p: float, weight: float) -> float:
    """The L^{p',oo} quasi-norm sup_t t * mu{y : g(y) > t}^{1/p'} of the
    column norms g, each column of measure `weight`, computed exactly:
    with g sorted in decreasing order g_1 >= g_2 >= ... and W_j the
    cumulative weight, the sup equals max_j g_j W_j^{1/p'}.  W_j is the
    running sum of the repeated weight; weight * j can differ from it in
    the last bit."""
    q = p / (p - 1.0)
    g = np.sort(g)[::-1]
    if g[0] == 0.0:
        return 0.0
    cum = np.cumsum(np.full(g.size, weight))
    return float(np.max(g * cum ** (1.0 / q)))


def mixed_norm(blocks, p: float, weight: float, mode: str = "weak") -> float:
    """|| ||K(x,y)||_{L^p(dx)} ||_{L^{p'}(dy)} with strong or weak outer norm.

    K is block-diagonal with the diagonal `blocks` (an operator passes
    `op.blocks, op.weight`; a single kernel is passed as `[K]`); rows
    index x, columns index y, and every row and column has the quadrature
    weight `weight`.  A column meets only its own block, so the inner
    norms are taken block by block (`column_norms`) and concatenated
    before the one outer norm; mode="weak" takes it by `weak_outer_norm`.
    The weak norm of an operator's blocks equals that of its whole kernel
    with the zero cross-half entries.

    Requires p > 2 (so p' < 2, the range of the factorization bound).
    """
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    inner = np.concatenate(column_norms(blocks, p, weight))
    if mode == "strong":
        q = p / (p - 1.0)
        return float(np.sum(inner**q * weight) ** (1.0 / q))
    return weak_outer_norm(inner, p, weight)


def russo_bound(blocks, p: float, weight: float) -> float:
    """Geometric mean of the weak mixed norms of the kernel and its adjoint.

    `blocks` are the diagonal blocks of the scalar commutator kernel
    (b(x) - b(y)) K(x,y) sampled on grid x grid without quadrature
    weights, and `weight` the grid's quadrature weight (see
    `mixed_norm`).  Returns the right-hand side of the factorization
    bound; p > 2 required.
    """
    direct = mixed_norm(blocks, p, weight)
    adjoint = mixed_norm([B.T for B in blocks], p, weight)
    return float(np.sqrt(direct * adjoint))
