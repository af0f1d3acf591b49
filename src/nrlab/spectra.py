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

Each norm takes one input form: the Schatten norms a spectrum, the
mixed norms a list of diagonal kernel blocks and one quadrature weight.
A mixed norm is `column_norms` followed by an outer norm, so a caller
that needs several outer norms of the same columns (the upper audit)
makes one pass over the blocks.
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


def _block_singular_values(block: np.ndarray, weight: float, rows, cols) -> np.ndarray:
    """Singular values of weight * block, min(block.shape) of them, given
    the boolean core masks `rows` and `cols`: block[i, j] = 0 whenever
    rows[i] and cols[j] are both False.  See the module docstring for
    the reduction."""
    core, below, right = (block[np.ix_(i, j)] * weight for i, j in ((rows, cols), (~rows, cols), (rows, ~cols)))
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
    a plain matrix is one block whose core masks are all True.
    See the module docstring for how each block is handled.
    """
    if hasattr(M, "cores"):
        blocks = [(B, M.weight, core, core) for B, core in zip(M.blocks, M.cores)]
    else:
        A = np.asarray(M, dtype=float)
        if A.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        blocks = [(A, 1.0, np.ones(A.shape[0], dtype=bool), np.ones(A.shape[1], dtype=bool))]
    return SingularSpectrum(np.concatenate([_block_singular_values(*b) for b in blocks]))


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


def column_norms(blocks, p: float, weight: float) -> list:
    """Per diagonal block, the L^p(weight) norm of each column:
    (sum_i |B_ij|^p weight)^(1/p) over the rows i of the block.

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
        inner.append(np.sum(terms, axis=0) ** (1.0 / p))
    return inner


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
