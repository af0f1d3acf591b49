"""Besov norms by the heat, difference and extension routes: zero
detection on per-half constants, homogeneity, translation invariance,
self-refinement stability, the single-term extension reduction, the
radius x direction shift sample against a per-shift reference loop, and
the family extension route against per-symbol extensions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab.besov import (
    BesovParams,
    besov_diff_norm,
    besov_heat_norm,
    besov_neumann_norm,
    default_shift_grid,
    default_time_grid,
    even_extension,
)
from nrlab.discretize import apply_semigroup, make_grid, row_blocks
from nrlab.dyadic import SampledField
from nrlab.harness import symbol_family
from nrlab.spectra import abs_power

BOX = ((-2.0, 2.0), (-2.0, 2.0))
PARAMS = BesovParams(alpha=0.5, p=4.0, q=4.0)
# the config defaults: t in [1e-3, 10] at 16 per decade
T_GRID = default_time_grid(1e-3, 10.0, 16)


def _bump(points, center=(0.0, 0.5), radius=0.35):
    pts = np.asarray(points, dtype=float)
    s2 = np.sum((pts - np.asarray(center)) ** 2, axis=-1) / radius**2
    out = np.zeros(pts.shape[:-1])
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def _halfconst(points):
    return np.where(np.asarray(points)[..., 1] > 0, 1.25, -0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        BesovParams(alpha=0.0, p=4.0, q=4.0)
    with pytest.raises(ValueError):
        BesovParams(alpha=1.0, p=4.0, q=4.0)
    with pytest.raises(ValueError):
        BesovParams(alpha=0.5, p=0.5, q=4.0)
    with pytest.raises(ValueError):
        BesovParams(alpha=0.5, p=4.0, q=float("inf"))


def test_time_and_shift_grids():
    t = default_time_grid(1e-3, 10.0, 16)
    assert t[0] == pytest.approx(1e-3) and t[-1] == pytest.approx(10.0)
    assert len(t) >= 16 * 4
    grid = make_grid(2, BOX, 16)
    shifts = default_shift_grid(grid, per_decade=8, angles=8)
    radii = default_time_grid(2 * np.max(grid.spacing), np.hypot(4.0, 4.0), 8)
    theta = 2 * np.pi * np.arange(8) / 8
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert shifts.shape == (radii.size, 8, 2)
    assert np.array_equal(shifts, radii[:, None, None] * dirs[None])
    norms = np.linalg.norm(shifts, axis=-1)
    assert norms.min() == pytest.approx(2 * np.max(grid.spacing), rel=1e-12)
    assert norms.max() == pytest.approx(np.hypot(4.0, 4.0), rel=1e-12)


# ---------------------------------------------------------------------------
# even extension


def test_even_extension_folds_coordinate():
    ext = even_extension(lambda p: np.asarray(p)[..., 1], "plus")
    pts = np.array([[0.3, 0.7], [0.3, -0.7], [1.1, -0.2]])
    assert np.array_equal(ext(pts), np.abs(pts[:, 1]))


def test_even_extension_constant_and_symmetry():
    ext = even_extension(lambda p: np.full(np.asarray(p).shape[:-1], 3.5), "minus")
    pts = np.random.default_rng(3).normal(size=(50, 2))
    mirrored = pts * np.array([1.0, -1.0])
    assert np.array_equal(ext(pts), np.full(50, 3.5))
    bump_ext = even_extension(_bump, "plus")
    assert np.array_equal(bump_ext(pts), bump_ext(mirrored))


def test_even_extension_minus_half_source():
    # extension built from the minus half reads the symbol at -|x_n|
    def f(points):
        pts = np.asarray(points)
        return np.where(pts[..., 1] < 0, pts[..., 1] ** 2, 99.0)

    ext = even_extension(f, "minus")
    pts = np.array([[0.0, 0.5], [0.0, -0.5]])
    assert np.array_equal(ext(pts), np.array([0.25, 0.25]))


# ---------------------------------------------------------------------------
# heat route


def test_heat_norm_vanishes_on_per_half_constants():
    grid = make_grid(2, BOX, 32)
    (val,) = besov_heat_norm([_halfconst], PARAMS, grid, T_GRID)
    assert val <= 1e-6


def _heat_norm_by_semigroup(b, params, grid, t_grid):
    """One symbol's heat-route norm with one `apply_semigroup` call per
    t-node and side step."""
    t_used = t_grid[t_grid >= float(np.max(grid.spacing)) ** 2]
    fld = SampledField(grid, b(grid.nodes))
    integrand_q = np.empty(t_used.size)
    for i, t in enumerate(t_used):
        up = apply_semigroup(fld, t * math.exp(0.05), kernel="neumann-box")
        dn = apply_semigroup(fld, t * math.exp(-0.05), kernel="neumann-box")
        deriv = -(up.values - dn.values) / (2.0 * 0.05)
        lp = float(np.sum(np.abs(deriv) ** params.p) * grid.weight) ** (1.0 / params.p)
        integrand_q[i] = (t ** (-params.alpha) * lp) ** params.q
    return float(np.trapezoid(integrand_q, np.log(t_used))) ** (1.0 / params.q)


def test_heat_norm_family_matches_per_symbol_semigroup_bit_for_bit():
    # at N = 32 a contraction of all fields at once already moves the
    # control's rounding residue, so this also pins the per-field order
    grid = make_grid(2, BOX, 32)
    t_grid = default_time_grid(1e-3, 10.0, 16)
    family = [_bump, _halfconst, lambda p: _bump(p, (0.3, -0.4), 0.6)]
    norms = besov_heat_norm(family, PARAMS, grid, t_grid)
    assert len(norms) == len(family)
    for b, norm in zip(family, norms):
        assert norm == _heat_norm_by_semigroup(b, PARAMS, grid, t_grid)
        assert besov_heat_norm([b], PARAMS, grid, t_grid) == [norm]


def test_heat_norm_family_matches_per_symbol_semigroup_on_a_3d_grid():
    box = ((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3))
    grid = make_grid(3, box, 12)
    t_grid = default_time_grid(1e-2, 10.0, 8)
    family = [
        lambda p: _bump(p, (0.0, 0.0, 0.4), 0.5),
        lambda p: np.where(np.asarray(p)[..., 2] > 0, 1.25, -0.5),
        lambda p: _bump(p, (0.2, -0.3, -0.3), 0.6),
    ]
    norms = besov_heat_norm(family, PARAMS, grid, t_grid)
    for b, norm in zip(family, norms):
        assert norm == _heat_norm_by_semigroup(b, PARAMS, grid, t_grid)


def test_heat_norm_is_bit_identical_across_t_node_chunks():
    # 3 fields of 256 values: chunks of 85 t-nodes, the last one short
    grid = make_grid(2, BOX, 16)
    t_grid = default_time_grid(0.0625, 10.0, 96)
    family = [_bump, _halfconst, lambda p: _bump(p, (0.3, -0.4), 0.6)]
    chunks = [i1 - i0 for i0, i1 in row_blocks(t_grid.size, len(family) * len(grid.nodes))]
    assert len(chunks) == 3 and chunks[-1] < chunks[0]
    norms = besov_heat_norm(family, PARAMS, grid, t_grid)
    for b, norm in zip(family, norms):
        assert norm == _heat_norm_by_semigroup(b, PARAMS, grid, t_grid)


def test_heat_norm_memory_is_bounded_by_its_t_node_chunks():
    # at N = 64 the default family evolves 7 x 4096 values per t-node; a
    # chunk of 2^16 values holds 2 t-nodes, and the route peaks near
    # 2.2 MiB (tracemalloc); all 55 kept t-nodes at once peak near 40 MiB
    grid = make_grid(2, BOX, 64)
    family = symbol_family("default", 2)
    tracemalloc.start()
    try:
        besov_heat_norm(family, PARAMS, grid, T_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_heat_norm_homogeneity():
    grid = make_grid(2, BOX, 24)
    base, doubled = besov_heat_norm([_bump, lambda p: 2.0 * _bump(p)], PARAMS, grid, T_GRID)
    assert base > 0
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)


def test_heat_norm_self_refinement():
    # matched t windows: both runs integrate from the coarse grid's
    # resolution floor, so the comparison measures quadrature error and
    # not the widening integration domain
    t_lo = (4.0 / 48) ** 2
    (coarse,) = besov_heat_norm(
        [_bump], PARAMS, make_grid(2, BOX, 48), default_time_grid(t_lo, 10.0, 16)
    )
    (fine,) = besov_heat_norm(
        [_bump], PARAMS, make_grid(2, BOX, 96), default_time_grid(t_lo, 10.0, 32)
    )
    assert coarse > 0 and fine > 0
    assert abs(fine - coarse) / fine < 0.05


def test_heat_norm_error_paths():
    grid = make_grid(2, BOX, 16)
    with pytest.raises(ValueError, match="empty t grid"):
        besov_heat_norm([_bump], PARAMS, grid, t_grid=np.array([]))
    with pytest.raises(ValueError, match="positive"):
        besov_heat_norm([_bump], PARAMS, grid, t_grid=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError, match="resolution floor"):
        # every node sits below max(spacing)^2 = 1/16
        besov_heat_norm([_bump], PARAMS, grid, t_grid=np.array([1e-5, 2e-5]))


def test_heat_norm_refuses_a_non_finite_t_node():
    # a NaN node used to fall through the resolution-floor filter
    grid = make_grid(2, BOX, 16)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t grid must be finite"):
            besov_heat_norm([_bump], PARAMS, grid, t_grid=np.array([0.3, 0.5, 1.0, bad]))


def test_time_grid_refuses_an_infinite_t_max():
    with pytest.raises(ValueError, match="t_max must be finite"):
        default_time_grid(1e-3, math.inf, 16)


# ---------------------------------------------------------------------------
# difference route


def test_diff_norm_vanishes_on_constants():
    grid = make_grid(2, BOX, 16)
    val = besov_diff_norm(
        lambda p: np.full(np.asarray(p).shape[:-1], 4.2), PARAMS, grid, default_shift_grid(grid, 16, 16)
    )
    assert val == 0.0


def test_diff_norm_gaussian_self_refinement():
    def gauss(points):
        pts = np.asarray(points)
        return np.exp(-np.sum(pts**2, axis=-1))

    coarse_grid = make_grid(2, BOX, 32)
    fine_grid = make_grid(2, BOX, 64)
    coarse = besov_diff_norm(
        gauss, PARAMS, coarse_grid, default_shift_grid(coarse_grid, 16, 16)
    )
    fine = besov_diff_norm(
        gauss, PARAMS, fine_grid, default_shift_grid(fine_grid, 32, 32)
    )
    assert coarse > 0 and fine > 0
    assert abs(fine - coarse) / fine < 0.05


def test_diff_norm_translation_invariance():
    # shift radii capped so support + shift + v stays inside the box for
    # both symbols; then the truncated integrals coincide and only float
    # association noise remains
    grid = make_grid(2, BOX, 32)
    dx = float(grid.spacing[0])
    v = np.array([2 * dx, -3 * dx])
    radii = default_time_grid(2 * dx, 1.0, 12)
    theta = 2 * np.pi * np.arange(12) / 12
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    shifts = radii[:, None, None] * dirs[None]
    base = besov_diff_norm(lambda p: _bump(p, (0.0, 0.0), 0.5), PARAMS, grid, shifts)
    moved = besov_diff_norm(
        lambda p: _bump(np.asarray(p) - v, (0.0, 0.0), 0.5), PARAMS, grid, shifts
    )
    assert base > 0
    assert abs(moved - base) / base < 1e-8


def test_diff_norm_error_paths():
    grid = make_grid(2, BOX, 16)
    shifts = default_shift_grid(grid, 4, 4)
    bad = {
        "radii, directions, n=2": [
            shifts.reshape(-1, 2),  # a flat (S, n) list
            np.arange(1.0, 49.0).reshape(16, 3) / 20,  # not 24 two-coordinate shifts
            np.concatenate([shifts, shifts[..., :1]], axis=-1),  # last axis 3 != n
        ],
        "at least 2 radii": [shifts[:1], np.empty((0, 4, 2)), np.empty((3, 0, 2))],
        "exclude 0": [np.concatenate([0.0 * shifts[:1], shifts])],
        "increase": [shifts[::-1], np.concatenate([shifts[:1], shifts])],
    }
    for match, grids in bad.items():
        for shift_grid in grids:
            with pytest.raises(ValueError, match=match):
                besov_diff_norm(_bump, PARAMS, grid, shift_grid=shift_grid)
            with pytest.raises(ValueError, match=match):
                besov_neumann_norm([_bump], PARAMS, grid, shift_grid=shift_grid)


def test_diff_norm_calls_the_symbol_once_per_radius():
    grid = make_grid(2, BOX, 16)
    shifts = default_shift_grid(grid, 8, 8)
    shapes = []

    def counted(points):
        shapes.append(np.shape(points))
        return _bump(points)

    assert besov_diff_norm(counted, PARAMS, grid, shifts) > 0
    assert len(shapes) == 1 + len(shifts)
    assert shapes[0] == grid.nodes.shape
    assert set(shapes[1:]) == {(8,) + grid.nodes.shape}


# ---------------------------------------------------------------------------
# the shift sample against a per-shift loop over a flat shift list


def _decoded_shift_weights(shifts):
    """Log-polar weights r^n dlog(r) dtheta of a flat (S, n) product
    sample, its radii recovered by grouping rounded logs."""
    radii = np.linalg.norm(shifts, axis=1)
    uniq = np.unique(np.round(np.log(radii), 9))
    dlog = np.zeros(uniq.size)
    dlog[1:-1] = (uniq[2:] - uniq[:-2]) / 2.0
    dlog[0] = (uniq[1] - uniq[0]) / 2.0
    dlog[-1] = (uniq[-1] - uniq[-2]) / 2.0
    which = np.searchsorted(uniq, np.round(np.log(radii), 9))
    counts = np.bincount(which, minlength=uniq.size)
    n = shifts.shape[1]
    sphere = 2.0 if n == 1 else 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    return radii**n * dlog[which] * (sphere / counts[which])


def _diff_norm_by_shift(f, params, grid, shifts):
    """The difference-route norm with one symbol call per shift."""
    shifts = np.reshape(shifts, (-1, grid.dim))
    radii = np.linalg.norm(shifts, axis=1)
    base = np.asarray(f(grid.nodes), dtype=float)
    total = 0.0
    for s, r, w in zip(shifts, radii, _decoded_shift_weights(shifts)):
        diff = np.asarray(f(grid.nodes + s), dtype=float) - base
        lp = float(np.sum(np.abs(diff) ** params.p) * grid.weight) ** (1.0 / params.p)
        total += w * lp**params.q / r ** (grid.dim + params.q * params.alpha)
    return total ** (1.0 / params.q)


def _neumann_norm_by_shift(b, params, grid, shifts):
    return sum(_diff_norm_by_shift(even_extension(b, h), params, grid, shifts) for h in ("plus", "minus"))


@pytest.mark.parametrize("N", [16, 24])
def test_diff_and_neumann_norms_match_the_per_shift_loop(N):
    grid = make_grid(2, BOX, N)
    shifts = default_shift_grid(grid, 16, 16)
    got = besov_diff_norm(_bump, PARAMS, grid, shifts)
    assert got == pytest.approx(_diff_norm_by_shift(_bump, PARAMS, grid, shifts), rel=1e-12, abs=0.0)
    for family in ("default", "divergence"):
        syms = symbol_family(family, 2)
        for sym, got in zip(syms, besov_neumann_norm(syms, PARAMS, grid, shifts), strict=True):
            want = _neumann_norm_by_shift(sym, PARAMS, grid, shifts)
            if sym.kind == "perhalf-constant":
                assert got == want == 0.0, sym.name
            else:
                assert got > 0.0 and got == pytest.approx(want, rel=1e-12, abs=0.0), sym.name


@settings(max_examples=25, deadline=None)
@given(
    per_decade=st.integers(1, 12),
    angles=st.integers(1, 12),
    N=st.sampled_from([4, 6, 8, 10, 12, 14, 16, 18, 20]),
)
def test_diff_norm_matches_the_per_shift_loop_on_any_sample(per_decade, angles, N):
    grid = make_grid(2, BOX, N)
    shifts = default_shift_grid(grid, per_decade, angles)
    for f in (_bump, even_extension(lambda p: _bump(p, (0.3, -0.4), 0.9), "minus")):
        want = _diff_norm_by_shift(f, PARAMS, grid, shifts)
        assert besov_diff_norm(f, PARAMS, grid, shifts) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, sphere", [(3, 4.0 * math.pi), (4, 2.0 * math.pi**2)], ids=["n3", "n4"])
def test_diff_norm_weights_carry_the_sphere_area(n, sphere):
    # radii e^-2, e^-1.5, e^-1, e^-0.5 along the 2n directions +-e_j: the
    # trapezoid in log r gives dlog = 0.25, 0.5, 0.5, 0.25, and each shift
    # carries r^n dlog |S^{n-1}| / (2n)
    def gauss(points):
        return np.exp(-np.sum(np.asarray(points) ** 2, axis=-1))

    grid = make_grid(n, ((-1.0, 1.0),) * n, 4)
    radii = np.exp([-2.0, -1.5, -1.0, -0.5])
    dlog = [0.25, 0.5, 0.5, 0.25]
    directions = np.concatenate([np.eye(n), -np.eye(n)])
    shifts = radii[:, None, None] * directions[None, :, :]
    total = 0.0
    for r, dl in zip(radii, dlog):
        for d in directions:
            diff = gauss(grid.nodes + r * d) - gauss(grid.nodes)
            lp = float(np.sum(np.abs(diff) ** PARAMS.p) * grid.weight) ** (1.0 / PARAMS.p)
            total += r**n * dl * sphere / (2 * n) * lp**PARAMS.q / r ** (n + PARAMS.q * PARAMS.alpha)
    want = total ** (1.0 / PARAMS.q)
    assert besov_diff_norm(gauss, PARAMS, grid, shifts) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# extension route


def test_neumann_norm_vanishes_on_per_half_constants():
    grid = make_grid(2, BOX, 16)
    assert besov_neumann_norm([_halfconst], PARAMS, grid, default_shift_grid(grid, 16, 16)) == [0.0]


def test_neumann_norm_single_term_reduction():
    # b = x2 on the plus half, 0 on the minus half: the plus extension is
    # |x2|, the minus extension is identically 0
    def b(points):
        pts = np.asarray(points)
        return np.where(pts[..., 1] > 0, pts[..., 1], 0.0)

    grid = make_grid(2, BOX, 24)
    shifts = default_shift_grid(grid, 8, 8)
    (whole,) = besov_neumann_norm([b], PARAMS, grid, shifts)
    folded = besov_diff_norm(
        lambda p: np.abs(np.asarray(p)[..., 1]), PARAMS, grid, shifts
    )
    assert whole == pytest.approx(folded, rel=1e-12)
    assert whole > 0


def test_heat_and_extension_routes_comparable():
    grid = make_grid(2, BOX, 32)
    (heat,) = besov_heat_norm([_bump], PARAMS, grid, T_GRID)
    (ext,) = besov_neumann_norm([_bump], PARAMS, grid, default_shift_grid(grid, 16, 16))
    assert heat > 0 and ext > 0
    assert 0.1 <= heat / ext <= 10.0


@pytest.mark.parametrize("N", [16, 24, 40])
def test_neumann_norm_family_matches_per_symbol_extensions_bit_for_bit(N):
    grid = make_grid(2, BOX, N)
    shifts = default_shift_grid(grid, 16, 16)
    for family in ("default", "divergence"):
        syms = symbol_family(family, 2)
        norms = besov_neumann_norm(syms, PARAMS, grid, shifts)
        assert len(norms) == len(syms)
        assert besov_neumann_norm(syms[::-1], PARAMS, grid, shifts) == norms[::-1]
        for sym, norm in zip(syms, norms):
            want = sum(besov_diff_norm(even_extension(sym, h), PARAMS, grid, shifts) for h in ("plus", "minus"))
            assert norm == want, sym.name
            assert besov_neumann_norm([sym], PARAMS, grid, shifts) == [norm], sym.name
            if sym.kind == "perhalf-constant":
                assert norm == 0.0, sym.name


def _folded_copy(x, half):
    folded = np.asarray(x, dtype=float).copy()
    folded[..., -1] = (1.0 if half == "plus" else -1.0) * np.abs(folded[..., -1])
    return folded


def _difference_norms_point_major(symbols, params, grid, shifts, halves):
    """out[h][s], the difference norm of symbols[s] on the nodes folded
    into halves[h] (None leaves them unfolded), with each radius's
    shifted nodes broadcast into one point-major (A, m, n) array and
    folded into each half by a copy."""
    n = grid.dim
    radii = np.linalg.norm(shifts, axis=-1)
    edged = np.pad(np.round(np.log(radii[:, 0]), 9), 1, mode="edge")
    dlog = (edged[2:] - edged[:-2]) / 2.0
    sphere = 2.0 if n == 1 else 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diff_and_neumann_norms_match_point_major_nodes_bit_for_bit(n):
    if n == 3:
        grid = make_grid(3, ((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 8)
        directions = np.array([*np.eye(3), *-np.eye(3), (1, 1, 1), (-1, 2, 0.5), (0.3, -1, -1)])
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        shifts = np.exp([-2.0, -1.4, -0.9, -0.5, 0.2])[:, None, None] * directions[None]
    else:
        grid = make_grid(n, BOX[:n], 24)
        shifts = default_shift_grid(grid, 16, 16)
    symbols = [
        lambda p: _bump(p, (0.2,) * (n - 1) + (0.5,), 0.6),
        lambda p: _bump(p, (-0.3,) * (n - 1) + (0.1,), 0.9),
        lambda p: _bump(p, (0.1,) * (n - 1) + (-0.55,), 0.35),
        lambda p: np.where(np.asarray(p)[..., -1] > 0, 1.25, -0.5),
    ]
    plus, minus = _difference_norms_point_major(symbols, PARAMS, grid, shifts, ("plus", "minus"))
    norms = besov_neumann_norm(symbols, PARAMS, grid, shifts)
    assert norms == [a + b for a, b in zip(plus, minus)]
    assert min(norms[:3]) > 0.0 and norms[3] == 0.0
    for f in symbols:
        ((want,),) = _difference_norms_point_major([f], PARAMS, grid, shifts, (None,))
        assert besov_diff_norm(f, PARAMS, grid, shifts) == want


@pytest.mark.parametrize("N", [32, 40])
def test_neumann_norm_matches_point_major_nodes_on_the_default_family(N):
    grid = make_grid(2, BOX, N)
    shifts = default_shift_grid(grid, 16, 16)
    syms = symbol_family("default", 2)
    plus, minus = _difference_norms_point_major(syms, PARAMS, grid, shifts, ("plus", "minus"))
    norms = besov_neumann_norm(syms, PARAMS, grid, shifts)
    assert norms == [a + b for a, b in zip(plus, minus)]
    for sym, norm in zip(syms, norms):
        assert norm == 0.0 if sym.kind == "perhalf-constant" else norm > 0.0, sym.name


def test_neumann_norm_shares_each_folded_node_array_across_the_family():
    grid = make_grid(2, BOX, 16)
    shifts = default_shift_grid(grid, 8, 8)
    seen = [[], [], []]

    def recorder(i):
        def f(points):
            seen[i].append(points)
            return _bump(points, (0.4 * i - 0.4, 0.5), 0.6)

        return f

    norms = besov_neumann_norm([recorder(i) for i in range(3)], PARAMS, grid, shifts)
    assert len(norms) == 3 and min(norms) > 0
    calls = 2 * (1 + len(shifts))
    assert [len(s) for s in seen] == [calls] * 3
    for k, points in enumerate(seen[0]):
        assert seen[1][k] is points and seen[2][k] is points
    # one array per (radius, half) and one per half for the unshifted
    # nodes, each folded into its half
    assert len({id(points) for points in seen[0]}) == calls
    plus = [p for p in seen[0] if np.all(p[..., -1] >= 0.0)]
    minus = [p for p in seen[0] if np.all(p[..., -1] <= 0.0)]
    assert len(plus) == len(minus) == 1 + len(shifts)
    for folded in (plus, minus):
        shapes = [p.shape for p in folded]
        assert shapes.count(grid.nodes.shape) == 1
        assert shapes.count((8,) + grid.nodes.shape) == len(shifts)
