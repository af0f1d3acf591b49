"""Closed-form heat and Riesz kernels for the half-space Neumann Laplacian.

The Neumann Laplacian acts independently on the two half-spaces
x_n > 0 and x_n < 0 with a zero normal-derivative condition on the
interface x_n = 0.  Its heat kernel is the usual Gaussian plus a
reflected Gaussian, gated to vanish whenever the two arguments sit in
distinct half-spaces.  The associated Riesz transform kernels K_l have
a classical Calderon-Zygmund term plus a reflected term; the same two
formulas (one for l < n, one for l = n) are valid verbatim on both
half-spaces, see `riesz_kernel`.

Points are plain numpy arrays whose last axis holds the n coordinates;
every kernel broadcasts over leading axes so that pairwise matrices can
be built with `x[:, None, :]` / `y[None, :, :]` meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # only for annotations; avoids a runtime cycle
    from .dyadic import Cube

__all__ = [
    "KernelParams",
    "Ball",
    "riesz_constant",
    "reflect",
    "squared_distance",
    "heat_kernel_full",
    "heat_kernel_neumann",
    "riesz_kernel",
    "cz_bounds_check",
    "sign_witness",
]


def riesz_constant(n: int) -> float:
    """Normalization C_n = Gamma((n+1)/2) / pi^((n+1)/2); C_2 = 1/(2 pi)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.gamma((n + 1) / 2) / math.pi ** ((n + 1) / 2)


def reflect(x: np.ndarray) -> np.ndarray:
    """Mirror across the interface: (x', x_n) -> (x', -x_n)."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    out[..., -1] = -out[..., -1]
    return out


def squared_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y|^2 over the last (coordinate) axis, broadcasting x and y.

    The per-coordinate squares (d * d, which is what d**2 computes) are
    summed term by term in coordinate order, the order
    np.sum(d**2, axis=-1) uses for fewer than 8 coordinates, so the two
    agree bit for bit; no (..., n) difference array is formed, no
    reduction runs over the short last axis, and at most two arrays of
    the result's shape are alive at a time.
    """
    d2 = x[..., 0] - y[..., 0]
    d2 *= d2
    for j in range(1, np.shape(x)[-1]):
        d = x[..., j] - y[..., j]
        d *= d
        d2 += d
    return d2


@dataclass(frozen=True)
class KernelParams:
    """Dimension and component index of a Riesz kernel, with its constant."""

    n: int
    ell: int
    cn: float = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("Riesz kernels need n >= 2")
        if not 1 <= self.ell <= self.n:
            raise ValueError(f"ell must lie in 1..{self.n}, got {self.ell}")
        object.__setattr__(self, "cn", riesz_constant(self.n))


@dataclass(frozen=True)
class Ball:
    """A Euclidean ball intersected with one closed half-space."""

    center: np.ndarray
    radius: float
    half: str

    def __post_init__(self):
        if self.half not in ("plus", "minus"):
            raise ValueError("half must be 'plus' or 'minus'")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside ball AND closed half-space."""
        pts = np.asarray(points, dtype=float)
        inside = squared_distance(pts, self.center) <= self.radius**2
        xn = pts[..., -1]
        gate = xn >= 0.0 if self.half == "plus" else xn <= 0.0
        return inside & gate


def _check_t(t: float) -> float:
    t = float(t)
    if t <= 0.0:
        raise ValueError("heat kernel requires t > 0")
    return t


def heat_kernel_full(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Free Gaussian heat kernel (4 pi t)^(-n/2) exp(-|x-y|^2 / 4t).

    Broadcasts over leading axes of `x` and `y`; the last axis is the
    coordinate axis and fixes the dimension n.
    """
    t = _check_t(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    r2 = squared_distance(x, y)
    out = (4.0 * math.pi * t) ** (-n / 2) * np.exp(-r2 / (4.0 * t))
    return out[()]


def heat_kernel_neumann(t: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Neumann heat kernel: tangential Gaussian times (direct + reflected)
    normal Gaussians, exactly zero across the interface.

    The gate is the Heaviside factor H(x_n y_n) with H(0) = 1, so points
    on the interface couple to both sides.
    """
    t = _check_t(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    r2_tang = squared_distance(x[..., :-1], y[..., :-1]) if n > 1 else 0.0
    dn = x[..., -1] - y[..., -1]
    sn = x[..., -1] + y[..., -1]
    gauss = np.exp(-(r2_tang + dn**2) / (4.0 * t)) + np.exp(
        -(r2_tang + sn**2) / (4.0 * t)
    )
    out = (4.0 * math.pi * t) ** (-n / 2) * gauss
    gate = x[..., -1] * y[..., -1] >= 0.0
    return np.where(gate, out, 0.0)[()]


def riesz_kernel(
    params: KernelParams,
    x: np.ndarray,
    y: np.ndarray,
    singular: str = "raise",
) -> np.ndarray:
    """Riesz transform kernel K_l(x, y) of the Neumann Laplacian.

    For l < n:
        K_l = -C_n [ (x_l-y_l)/|x-y|^(n+1)
                     + (x_l-y_l)/(|x'-y'|^2 + (x_n+y_n)^2)^((n+1)/2) ]
    and for l = n the reflected numerator is x_n + y_n instead.  The
    kernel is exactly 0 whenever x_n y_n < 0.  The same expressions hold
    on the minus half-space: reflecting both arguments leaves the l < n
    formula invariant and negates the l = n one, which is precisely the
    mirrored kernel.

    Parameters
    ----------
    params : KernelParams
    x, y : arrays broadcastable to a common shape (..., n)
    singular : "raise" rejects coincident same-half pairs; "zero" maps
        them to 0.0, the principal-value convention used when sampling
        full pairwise matrices whose diagonal is discarded anyway.

    Returns
    -------
    Array of kernel values (scalar for single points).
    """
    if singular not in ("raise", "zero"):
        raise ValueError("singular must be 'raise' or 'zero'")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, ell = params.n, params.ell
    if x.shape[-1] != n or y.shape[-1] != n:
        raise ValueError(f"points must have {n} coordinates")

    # per-coordinate differences and squared distances, summed term by
    # term in coordinate order (the order a reduction over the last axis
    # uses), so r2 and refl2 are bit-identical to np.sum(d**2, axis=-1);
    # refl2 holds the tangential sum until r2 is formed from it
    d = [x[..., j] - y[..., j] for j in range(n)]
    sn = x[..., -1] + y[..., -1]
    refl2 = d[0] * d[0]
    for dj in d[1:-1]:
        refl2 += dj * dj
    r2 = refl2 + d[-1] * d[-1]
    refl2 += sn * sn

    gate = x[..., -1] * y[..., -1] >= 0.0
    coincident = gate & (r2 == 0.0)
    if np.any(coincident):
        if singular == "raise":
            raise ValueError("kernel singularity: x = y within one half-space")
    num1 = d[ell - 1]
    num2 = sn if ell == n else num1
    expo = (n + 1) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -params.cn * (num1 / r2**expo + num2 / refl2**expo)
    out = np.where(gate & ~coincident, val, 0.0)
    return out[()]


def cz_bounds_check(
    params: KernelParams,
    x: np.ndarray,
    xp: np.ndarray,
    y: np.ndarray,
) -> tuple[bool, float]:
    """Audit the Calderon-Zygmund size and smoothness conditions at a triple.

    Requires x, xp, y in one common half-space and |x-xp| <= |x-y|/2.
    Returns (size_ok, smooth_ratio) where size_ok asserts
    |K(x,y)| <= 2 C_n / |x-y|^n (each of the two kernel terms is bounded
    by C_n/|x-y|^n inside one half-space, so the factor 2 is provable)
    and
    smooth_ratio = (|K(x,y)-K(xp,y)| + |K(y,x)-K(y,xp)|) |x-y|^(n+1) / |x-xp|,
    with the degenerate 0/0 case at x = xp reported as 0.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    y = np.asarray(y, dtype=float)
    signs = np.sign([x[-1], xp[-1], y[-1]])
    if signs.min() < 0 < signs.max():
        raise ValueError("x, x', y must lie in one common half-space")
    dxy = float(np.linalg.norm(x - y))
    dxxp = float(np.linalg.norm(x - xp))
    if dxxp > 0.5 * dxy:
        raise ValueError("need |x-x'| <= |x-y|/2")

    k_xy = float(riesz_kernel(params, x, y))
    size_ok = abs(k_xy) <= 2.0 * params.cn / dxy**params.n
    if dxxp == 0.0:
        return size_ok, 0.0
    diff = abs(k_xy - float(riesz_kernel(params, xp, y))) + abs(
        float(riesz_kernel(params, y, x)) - float(riesz_kernel(params, y, xp))
    )
    return size_ok, diff * dxy ** (params.n + 1) / dxxp


def sign_witness(
    Q: "Cube", params: KernelParams, A: float = 16.0
) -> tuple[np.ndarray, Ball, float]:
    """Companion ball on which K_l keeps one sign and stays large.

    For an admissible cube Q of side s the witness point is
    y0 = center(Q) + A s e_l, with the offset flipped to -A s e_n for
    l = n on the minus half-space so that y0 moves away from the
    interface.  The ball is B(y0, s/12) intersected with the half-space,
    and the certified magnitude is (C_n/2) (A s)^(-n).

    The certified bound is provable for l < n (and audited as such); for
    l = n the kernel vanishes on the interface, so boundary-adjacent
    cubes only satisfy the sign-constancy half of the claim.  Callers
    verify both numerically on sampled pairs.
    """
    A = float(A)
    if A <= 0.0:
        raise ValueError("offset multiplier A must be positive")
    center = np.asarray(Q.center, dtype=float)
    side = float(Q.side)
    direction = np.zeros(params.n)
    sign = -1.0 if (params.ell == params.n and Q.half == "minus") else 1.0
    direction[params.ell - 1] = sign
    y0 = center + A * side * direction

    radius = side / 12.0
    yn = y0[-1]
    inside = yn - radius >= 0.0 if Q.half == "plus" else yn + radius <= 0.0
    if not inside:
        raise ValueError("A too small for boundary-adjacent cube")
    bound = 0.5 * params.cn * (A * side) ** (-params.n)
    return y0, Ball(y0, radius, Q.half), bound
