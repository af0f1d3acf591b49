"""Singular spectra, Schatten and weak Schatten norms, mixed kernel norms.

Spectra are taken block by block.  An assembled Neumann operator is
stored as its plus-plus and minus-minus blocks (the kernel gate kills
cross-half pairs), and its singular values are the union of theirs; a
plain matrix is one block.  A block that
is exactly zero has a zero spectrum; an exactly symmetric block (the
commutator for ell < n, where K_ell(y,x) = -K_ell(x,y) bit for bit) has
the absolute values of its eigenvalues (`eigvalsh`); any other block
goes through a values-only SVD.

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


def _block_singular_values(block: np.ndarray) -> np.ndarray:
    if not np.any(block):
        # control symbols: an identically zero commutator stays cheap at
        # any grid size
        return np.zeros(min(block.shape))
    if np.array_equal(block, block.T):
        return np.abs(np.linalg.eigvalsh(block))
    return np.linalg.svd(block, compute_uv=False)


def singular_values(M) -> SingularSpectrum:
    """Descending singular values of a dense matrix or an OperatorMatrix.

    An OperatorMatrix is split by its `half_blocks`; a plain matrix is
    one block.  See the module docstring for how each block is handled.
    """
    blocks = M.half_blocks() if hasattr(M, "half_blocks") else [np.asarray(M, dtype=float)]
    for block in blocks:
        if block.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        if not np.all(np.isfinite(block)):
            raise ValueError("non-finite entries in matrix")
    return SingularSpectrum(np.concatenate([_block_singular_values(b) for b in blocks]))


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


def _kernel_and_weights(K, row_weights, col_weights):
    if hasattr(K, "kernel"):
        mat = np.asarray(K.kernel, dtype=float)
        if row_weights is None:
            row_weights = K.weight
        if col_weights is None:
            col_weights = K.weight
    else:
        mat = np.asarray(K, dtype=float)
    if mat.ndim != 2:
        raise ValueError("expected a kernel sampled on grid x grid")
    wx = np.broadcast_to(np.asarray(1.0 if row_weights is None else row_weights, float), (mat.shape[0],))
    wy = np.broadcast_to(np.asarray(1.0 if col_weights is None else col_weights, float), (mat.shape[1],))
    return mat, wx, wy


def mixed_norm(K, p: float, mode: str = "weak", row_weights=None, col_weights=None) -> float:
    """|| ||K(x,y)||_{L^p(dx)} ||_{L^{p'}(dy)} with strong or weak outer norm.

    Rows of K index x, columns index y.  mode="weak" computes the outer
    L^{p',oo} quasi-norm sup_t t * mu{y : inner(y) > t}^{1/p'} exactly:
    with the inner values sorted in decreasing order g_1 >= g_2 >= ...
    and W_j the cumulative weight, the sup equals max_j g_j W_j^{1/p'}.

    Requires p > 2 (so p' < 2, the range of the factorization bound).
    """
    if p <= 2:
        raise ValueError("mixed norm requires p > 2")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    mat, wx, wy = _kernel_and_weights(K, row_weights, col_weights)
    q = p / (p - 1.0)
    # in place, so a whole-grid kernel costs one temporary of its size
    terms = np.abs(mat)
    terms **= p
    terms *= wx[:, None]
    inner = np.sum(terms, axis=0) ** (1.0 / p)
    if mode == "strong":
        return float(np.sum(inner**q * wy) ** (1.0 / q))
    order = np.argsort(inner)[::-1]
    g = inner[order]
    cum = np.cumsum(wy[order])
    if g[0] == 0.0:
        return 0.0
    return float(np.max(g * cum ** (1.0 / q)))


def russo_bound(Kc, p: float, row_weights=None, col_weights=None) -> float:
    """Geometric mean of the weak mixed norms of the kernel and its adjoint.

    Kc is the scalar commutator kernel (b(x) - b(y)) K(x,y) sampled on
    grid x grid without quadrature weights; the weights enter through the
    mixed-norm integrals.  Returns the right-hand side of the
    factorization bound; p > 2 required.
    """
    if p <= 2:
        raise ValueError("russo bound requires p > 2")
    mat, wx, wy = _kernel_and_weights(Kc, row_weights, col_weights)
    direct = mixed_norm(mat, p, "weak", row_weights=wx, col_weights=wy)
    adjoint = mixed_norm(mat.T, p, "weak", row_weights=wy, col_weights=wx)
    return float(np.sqrt(direct * adjoint))
