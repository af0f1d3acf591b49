"""Kernel-level oracles: frozen closed-form values, gating, symmetry,
Gaussian mass, the subordination identity tying the Riesz kernels to the
heat flow, size/smoothness bounds, the sign-witness construction, and
the coordinate-wise squared distances against the last-axis reduction."""

import math

import numpy as np
import pytest

from nrlab.discretize import assemble_commutator, make_grid
from nrlab.dyadic import Cube, build_system
from nrlab.harness import ExperimentConfig, lattice_shift_sample, symbol_family
from nrlab.kernels import (
    Ball,
    KernelParams,
    cz_bounds_check,
    heat_kernel_full,
    heat_kernel_neumann,
    riesz_constant,
    riesz_kernel,
    sign_witness,
    squared_distance,
)

C2 = 1.0 / (2.0 * math.pi)


def reflect(x):
    """Mirror across the interface: (x', x_n) -> (x', -x_n)."""
    out = np.array(x, dtype=float)
    out[..., -1] = -out[..., -1]
    return out


def test_riesz_constant_small_dimensions():
    # Gamma((n+1)/2) / pi^((n+1)/2) for n = 2, 3
    assert riesz_constant(2) == pytest.approx(C2, rel=1e-15)
    assert riesz_constant(3) == pytest.approx(1.0 / math.pi**2, rel=1e-15)
    with pytest.raises(ValueError):
        riesz_constant(0)


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(2, 3)
    with pytest.raises(ValueError):
        KernelParams(2, 0)
    with pytest.raises(ValueError):
        KernelParams(1, 1)
    assert KernelParams(2, 1).cn == pytest.approx(C2)


# ---------------------------------------------------------------------------
# heat kernels


def test_heat_full_frozen_value_and_symmetry():
    x = np.array([0.3, -0.7])
    assert heat_kernel_full(0.25, x, x) == pytest.approx(1.0 / math.pi, rel=1e-14)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(100, 2))
    b = rng.normal(size=(100, 2))
    assert np.array_equal(heat_kernel_full(0.37, a, b), heat_kernel_full(0.37, b, a))


def test_heat_full_gaussian_mass():
    t = 0.2
    x = np.array([0.1, 0.4])
    r = 8.0 * math.sqrt(t)
    m = 400
    axes = [x[j] - r + (np.arange(m) + 0.5) * (2 * r / m) for j in range(2)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    w = (2 * r / m) ** 2
    total = float(np.sum(heat_kernel_full(t, x, mesh)) * w)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_heat_neumann_boundary_doubles_and_dominates():
    x = np.array([0.5, 0.0])
    assert heat_kernel_neumann(0.25, x, x) == pytest.approx(2.0 / math.pi, rel=1e-14)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(200, 2))
    a[:, 1] = np.abs(a[:, 1])
    b = rng.normal(size=(200, 2))
    b[:, 1] = np.abs(b[:, 1])
    assert np.all(heat_kernel_neumann(0.31, a, b) >= heat_kernel_full(0.31, a, b))


def test_heat_neumann_gate_exact_zero():
    x = np.array([0.0, 1.0])
    y = np.array([0.0, -1.0])
    for t in (0.01, 0.5, 3.0):
        assert heat_kernel_neumann(t, x, y) == 0.0


def test_heat_neumann_conservation_on_half_space():
    # mass of p_t(x, .) over the same half-space is 1 (reflection keeps it)
    t = 0.15
    x = np.array([-0.2, 0.6])
    r = 8.0 * math.sqrt(t)
    m = 500
    ax1 = x[0] - r + (np.arange(m) + 0.5) * (2 * r / m)
    ax2 = (np.arange(m) + 0.5) * ((x[1] + r) / m)
    mesh = np.stack(np.meshgrid(ax1, ax2, indexing="ij"), axis=-1).reshape(-1, 2)
    w = (2 * r / m) * ((x[1] + r) / m)
    total = float(np.sum(heat_kernel_neumann(t, x, mesh)) * w)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_heat_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        heat_kernel_full(0.0, [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        heat_kernel_neumann(-0.1, [0.0, 1.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# Riesz kernels


def test_riesz_frozen_values():
    k2 = riesz_kernel(KernelParams(2, 2), [0.0, 1.0], [0.0, 2.0])
    assert k2 == pytest.approx(4.0 / (9.0 * math.pi), rel=1e-14)
    k1 = riesz_kernel(KernelParams(2, 1), [1.0, 1.0], [0.0, 1.0])
    assert k1 == pytest.approx(-C2 * (1.0 + 5.0**-1.5), rel=1e-14)
    assert k1 == pytest.approx(-0.1733901939602389, rel=1e-14)


def test_riesz_gate_many_pairs():
    rng = np.random.default_rng(11)
    params = KernelParams(2, 1)
    x = rng.normal(size=(10000, 2))
    x[:, 1] = np.abs(x[:, 1]) + 1e-9
    y = rng.normal(size=(10000, 2))
    y[:, 1] = -np.abs(y[:, 1]) - 1e-9
    vals = riesz_kernel(params, x, y)
    assert np.count_nonzero(vals) == 0


def test_riesz_minus_half_matches_literal_formula():
    # the same closed form evaluates verbatim on the lower half-space
    params = KernelParams(2, 2)
    x = np.array([0.4, -0.3])
    y = np.array([-0.2, -1.1])
    d = x - y
    r = np.hypot(*d)
    refl2 = d[0] ** 2 + (x[1] + y[1]) ** 2
    expected = -C2 * (d[1] / r**3 + (x[1] + y[1]) / refl2**1.5)
    assert riesz_kernel(params, x, y) == pytest.approx(expected, rel=1e-14)


def test_riesz_reflection_covariance():
    # reflecting both points maps the two halves onto each other:
    # tangential components are invariant, the normal one flips sign
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        x[1] = abs(x[1]) + 1e-6
        y[1] = abs(y[1]) + 1e-6
        k1 = riesz_kernel(KernelParams(2, 1), x, y)
        k1r = riesz_kernel(KernelParams(2, 1), reflect(x), reflect(y))
        assert k1r == pytest.approx(k1, rel=1e-12)
        k2 = riesz_kernel(KernelParams(2, 2), x, y)
        k2r = riesz_kernel(KernelParams(2, 2), reflect(x), reflect(y))
        assert k2r == pytest.approx(-k2, rel=1e-12)


@pytest.mark.parametrize("N", [16, 32])
def test_tangential_kernel_is_antisymmetric_on_strip_pairs(N):
    # a commutator's column strip for ell < n is its row strip's
    # transpose (`assemble_commutator`), which needs K(y, x) == -K(x, y)
    # on every pair of a core node x and a node y of its half: bit for
    # bit on the non-zero values, and the zeros, where x_1 = y_1, are
    # -0.0 both ways (+0.0 on the diagonal).  The normal kernel's
    # reflected numerator x_n + y_n does not change sign.
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N)
    tangential, normal = KernelParams(2, 1), KernelParams(2, 2)
    pairs = 0
    for sym in symbol_family("default", 2) + symbol_family("divergence", 2):
        for idx, core in zip(grid.half_indices(), assemble_commutator(sym, 1, grid).cores):
            xh = grid.nodes[idx]
            xs = xh[core]
            k_xy = riesz_kernel(tangential, xs[:, None, :], xh[None, :, :], singular="zero")
            k_yx = riesz_kernel(tangential, xh[:, None, :], xs[None, :, :], singular="zero")
            assert np.array_equal(k_yx, -k_xy.T)
            nonzero = k_xy != 0.0
            assert np.array_equal(nonzero, xs[:, None, 0] != xh[None, :, 0])
            assert (-k_xy[nonzero]).tobytes() == k_yx.T[nonzero].tobytes()
            coincident = np.all(xs[:, None, :] == xh[None, :, :], axis=-1)
            assert np.array_equal(np.signbit(k_xy[~nonzero]), ~coincident[~nonzero])
            assert np.array_equal(np.signbit(k_yx.T[~nonzero]), ~coincident[~nonzero])
            pairs += k_xy.size
            if len(xs):
                n_xy = riesz_kernel(normal, xs[:, None, :], xh[None, :, :], singular="zero")
                n_yx = riesz_kernel(normal, xh[:, None, :], xs[None, :, :], singular="zero")
                assert not np.array_equal(n_yx, -n_xy.T)
    assert pairs > 0


def test_riesz_singularity_handling():
    params = KernelParams(2, 1)
    with pytest.raises(ValueError, match="kernel singularity"):
        riesz_kernel(params, [0.5, 0.5], [0.5, 0.5])
    assert riesz_kernel(params, [0.5, 0.5], [0.5, 0.5], singular="zero") == 0.0


def _riesz_reduction_form(params, x, y):
    """The kernel with squared distances taken as np.sum reductions over
    the coordinate axis, singular pairs mapped to zero."""
    n, ell = params.n, params.ell
    d = x - y
    r2 = np.sum(d**2, axis=-1)
    sn = x[..., -1] + y[..., -1]
    refl2 = np.sum(d[..., :-1] ** 2, axis=-1) + sn**2
    gate = x[..., -1] * y[..., -1] >= 0.0
    coincident = gate & (r2 == 0.0)
    num1 = d[..., ell - 1]
    num2 = sn if ell == n else num1
    expo = (n + 1) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -params.cn * (num1 / r2**expo + num2 / refl2**expo)
    return np.where(gate & ~coincident, val, 0.0)


@pytest.mark.parametrize("n,ell", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_riesz_bit_identical_to_reduction_form(n, ell):
    # per-coordinate squared sums add the same terms in the same order
    # as the reduction: every value and every sign bit agrees
    rng = np.random.default_rng(23)
    params = KernelParams(n, ell)
    pts = rng.normal(size=(300, n))
    pts[:40, -1] = 0.0  # interface points couple to both halves
    pts[40:60] = pts[60:80]  # repeated points: coincident pairs
    x, y = pts[:, None, :], pts[None, :, :]
    got = riesz_kernel(params, x, y, singular="zero")
    want = _riesz_reduction_form(params, x, y)
    cross = x[..., -1] * y[..., -1] < 0.0
    assert np.any(cross) and np.count_nonzero(np.all(x == y, axis=-1)) > len(pts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _neumann_heat_dl(t, x, y, ell, n):
    """Analytic d/dx_ell of the half-space Neumann heat kernel (same-half
    points), used as the subordination-integral oracle."""
    tang = np.exp(-np.sum((x[: n - 1] - y[: n - 1]) ** 2) / (4 * t))
    gm = np.exp(-((x[-1] - y[-1]) ** 2) / (4 * t))
    gp = np.exp(-((x[-1] + y[-1]) ** 2) / (4 * t))
    norm = (4 * np.pi * t) ** (-n / 2)
    if ell < n:
        return norm * (-(x[ell - 1] - y[ell - 1]) / (2 * t)) * tang * (gm + gp)
    return norm * tang * (
        -(x[-1] - y[-1]) / (2 * t) * gm - (x[-1] + y[-1]) / (2 * t) * gp
    )


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize(
    "x,y",
    [
        (np.array([0.7, 0.9]), np.array([-0.1, 0.4])),
        (np.array([0.2, -0.6]), np.array([0.9, -1.3])),
    ],
)
def test_riesz_subordination_integral(ell, x, y):
    # K_ell(x, y) = pi^{-1/2} int_0^oo t^{-1/2} d/dx_ell p_t^N(x, y) dt
    # integrate in log t, where the integrand is smooth and bell-shaped
    u = np.linspace(math.log(1e-8), math.log(1e6), 2000)
    t_grid = np.exp(u)
    vals = np.array(
        [_neumann_heat_dl(t, x, y, ell, 2) * t**0.5 for t in t_grid]
    )
    integral = np.trapezoid(vals, u) / math.sqrt(math.pi)
    expected = riesz_kernel(KernelParams(2, ell), x, y)
    assert integral == pytest.approx(expected, rel=1e-7)


# ---------------------------------------------------------------------------
# size and smoothness bounds


def test_cz_size_bound_on_frozen_example():
    params = KernelParams(2, 2)
    ok, _ = cz_bounds_check(params, np.array([0.0, 1.0]), np.array([0.0, 1.2]), np.array([0.0, 2.0]))
    assert ok
    # sanity on the actual numbers: |K| = 4/(9 pi) <= 2 C_2 / |x-y|^2 = 1/pi
    assert 4.0 / (9.0 * math.pi) <= 2.0 * C2


def test_cz_smoothness_ratio_bounded_over_random_triples():
    rng = np.random.default_rng(19)
    params = KernelParams(2, 1)
    worst = 0.0
    tried = 0
    while tried < 1000:
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        x[1] = abs(x[1]) + 0.01
        y[1] = abs(y[1]) + 0.01
        d = np.linalg.norm(x - y)
        if d < 1e-2:
            continue
        xp = x + rng.normal(size=2) * (d / 8)
        xp[1] = abs(xp[1]) + 1e-9
        if np.linalg.norm(x - xp) > d / 2 or np.allclose(x, xp):
            continue
        ok, ratio = cz_bounds_check(params, x, xp, y)
        assert ok
        worst = max(worst, ratio)
        tried += 1
    assert 0 < worst < 100.0


def test_cz_identical_perturbation_gives_zero_ratio():
    params = KernelParams(2, 1)
    x = np.array([0.5, 0.5])
    _, ratio = cz_bounds_check(params, x, x.copy(), np.array([2.0, 2.0]))
    assert ratio == 0.0


def test_cz_rejects_bad_inputs():
    params = KernelParams(2, 1)
    with pytest.raises(ValueError):
        # perturbation farther than half the distance to y
        cz_bounds_check(params, [0.0, 1.0], [0.0, 3.0], [0.0, 2.0])
    with pytest.raises(ValueError):
        # x and y in different halves
        cz_bounds_check(params, [0.0, 1.0], [0.1, 1.0], [0.0, -2.0])


# ---------------------------------------------------------------------------
# sign witness


def _ball_points(ball, m=20):
    axes = [
        c - ball.radius + (np.arange(m) + 0.5) * (2 * ball.radius / m)
        for c in ball.center
    ]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    return mesh[ball.contains(mesh)]


def _cube_points(Q, m=20):
    axes = [v + (np.arange(m) + 0.5) * (Q.side / m) for v in Q.vertex]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)


def test_sign_witness_frozen_geometry():
    Q = Cube(0, (0, 1), (0.0, 0.0), "plus")  # box [0,1) x [1,2)
    y0, ball, bound = sign_witness(Q, KernelParams(2, 1), A=16.0)
    assert np.allclose(y0, [16.5, 1.5])
    assert ball.radius == pytest.approx(1.0 / 12.0)
    assert bound == pytest.approx(0.5 * C2 * 16.0**-2, rel=1e-14)


def test_sign_witness_magnitude_and_sign_hold_at_calibrated_offset():
    params = KernelParams(2, 1)
    for Q in (
        Cube(0, (0, 1), (0.0, 0.0), "plus"),
        Cube(0, (0, 0), (0.0, 0.0), "plus"),  # boundary-adjacent
        Cube(2, (3, -4), (0.0, 0.0), "minus"),
        Cube(-1, (-1, -1), (0.0, 0.0), "minus"),
    ):
        y0, ball, bound = sign_witness(Q, params, A=16.0)
        ys = _ball_points(ball)
        grid = _cube_points(Q)
        vals = riesz_kernel(params, grid[:, None, :], ys[None, :, :], singular="zero")
        assert np.all(vals > 0.0) or np.all(vals < 0.0)
        assert float(np.min(np.abs(vals))) >= bound


def test_sign_witness_normal_direction_mirror_symmetry():
    # witness for ell = n points away from the interface on both halves
    params = KernelParams(2, 2)
    qp = Cube(1, (0, 1), (0.0, 0.0), "plus")
    qm = Cube(1, (0, -2), (0.0, 0.0), "minus")  # mirror cube of qp
    yp, _, _ = sign_witness(qp, params, A=16.0)
    ym, _, _ = sign_witness(qm, params, A=16.0)
    assert np.allclose(reflect(yp), ym)


def test_sign_witness_magnitude_fails_somewhere_at_A_1():
    # far from the interface the reflected term cannot help; A=1 is too close
    params = KernelParams(2, 1)
    Q = Cube(0, (0, 8), (0.0, 0.0), "plus")
    y0, ball, bound = sign_witness(Q, params, A=1.0)
    ys = _ball_points(ball)
    corner = Q.vertex + np.array([0.5, 0.5]) * Q.side / 20  # low-x1 corner cell
    vals = riesz_kernel(params, corner[None, :], ys, singular="zero")
    assert float(np.min(np.abs(vals))) < bound


def test_sign_witness_ball_stays_in_half():
    params = KernelParams(2, 2)
    Q = Cube(0, (0, 0), (0.0, 0.0), "minus")
    with pytest.raises(ValueError, match="cube leaves its half-space"):
        # a cube on the plus side labelled minus: no offset keeps its
        # witness ball in the minus half
        sign_witness(Q, params, A=0.05)


@pytest.mark.parametrize("ell", [1, 2])
def test_every_admissible_witness_ball_stays_in_its_half(ell):
    # the ball's last coordinate is the cube centre's, at least s/2 from
    # the interface, or moves away from it, so even a tiny A keeps the
    # radius s/12 ball of every admissible cube in the cube's half
    cfg = ExperimentConfig()
    params = KernelParams(2, ell)
    checked = 0
    for shift in lattice_shift_sample(2, cfg.num_lattice_shifts):
        for half in ("plus", "minus"):
            system = build_system(half, shift, cfg.box, (cfg.k_min, 4))
            for cubes in system.cubes.values():
                for Q in cubes:
                    _, ball, _ = sign_witness(Q, params, A=1e-9)
                    yn = ball.center[-1]
                    assert (yn - ball.radius >= 0.0) if half == "plus" else (yn + ball.radius <= 0.0)
                    checked += 1
    assert checked > 1000


def test_ball_contains_respects_half():
    ball = Ball(np.array([0.0, 0.05]), 0.2, "plus")
    pts = np.array([[0.0, 0.1], [0.0, -0.1], [0.0, 0.3]])
    assert list(ball.contains(pts)) == [True, False, False]


# ---------------------------------------------------------------------------
# coordinate-wise squared distances

CENTER = np.array([0.25, 0.5, -0.75])


def _probe_points(n):
    """The centre, the 2n points c +- 0.5 e_j on the sphere of radius 0.5
    about it (squared distance exactly 0.25), the origin with both signs
    of zero, and points whose offsets from c span 1e-3 to 3, close enough
    that the Gaussians of most pairs do not underflow."""
    rng = np.random.default_rng(31)
    c = CENTER[:n]
    on_sphere = np.concatenate([c + 0.5 * np.eye(n), c - 0.5 * np.eye(n)])
    zeros = np.array([[0.0] * n, [-0.0] * n])
    spread = c + rng.normal(size=(150, n)) * 10.0 ** rng.uniform(-3.0, 0.5, size=(150, n))
    return np.concatenate([c[None], on_sphere, zeros, spread])


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [2, 3])
def test_squared_distance_bit_identical_to_reduction_form(n):
    pts = _probe_points(n)
    c = CENTER[:n]
    pairs = [(pts, c), (pts[:, None, :], pts[None, :, :]), (pts[:, None, :-1], pts[None, :, :-1])]
    for x, y in pairs:
        assert _same_bits(squared_distance(x, y), np.sum((x - y) ** 2, axis=-1))
    d2 = squared_distance(pts, c)
    assert d2[0] == 0.0 and np.all(d2[1 : 2 * n + 1] == 0.25)


@pytest.mark.parametrize("n", [2, 3])
def test_heat_kernels_and_ball_bit_identical_to_reduction_form(n):
    pts = _probe_points(n)
    x, y = pts[:, None, :], pts[None, :, :]
    t = 0.3
    norm = (4.0 * math.pi * t) ** (-n / 2)
    d = x - y
    r2_tang = np.sum(d[..., :-1] ** 2, axis=-1)
    sn = x[..., -1] + y[..., -1]
    full = norm * np.exp(-np.sum(d**2, axis=-1) / (4.0 * t))
    gauss = np.exp(-(r2_tang + d[..., -1] ** 2) / (4.0 * t)) + np.exp(-(r2_tang + sn**2) / (4.0 * t))
    neumann = np.where(x[..., -1] * y[..., -1] >= 0.0, norm * gauss, 0.0)
    assert _same_bits(heat_kernel_full(t, x, y), full)
    assert _same_bits(heat_kernel_neumann(t, x, y), neumann)
    inside = np.sum((pts - CENTER[:n]) ** 2, axis=-1) <= 0.25
    for half, gate in (("plus", pts[:, -1] >= 0.0), ("minus", pts[:, -1] <= 0.0)):
        got = Ball(CENTER[:n], 0.5, half).contains(pts)
        assert np.array_equal(got, inside & gate)
        # the closed ball keeps every sphere point on its side of the interface
        assert np.array_equal(got[1 : 2 * n + 1], gate[1 : 2 * n + 1])
