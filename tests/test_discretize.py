"""Grids, matrix assembly, semigroup application and binary export.

The assembly oracles are hand evaluations on tiny grids; the semigroup
oracles are conservation, gating, composition and the even-extension
route; export is checked byte-for-byte."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrlab.besov import default_time_grid
from nrlab.discretize import (
    OperatorMatrix,
    QuadratureGrid,
    apply_semigroup,
    assemble_commutator,
    assemble_riesz,
    ball_microgrid,
    export_matrix,
    heat_axis_matrices,
    make_grid,
    read_matrix,
)
from nrlab.dyadic import SampledField
from nrlab.harness import symbol_family
from nrlab.kernels import Ball, KernelParams, riesz_kernel

BOX = ((-2.0, 2.0), (-2.0, 2.0))


def _bump(points, center=(0.0, 0.5), radius=0.25):
    pts = np.asarray(points, dtype=float)
    s2 = np.sum((pts - np.asarray(center)) ** 2, axis=-1) / radius**2
    out = np.zeros(pts.shape[:-1])
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


# ---------------------------------------------------------------------------
# grids


def test_make_grid_frozen_small_case():
    grid = make_grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 4)
    assert len(grid.nodes) == 16
    assert grid.weight == pytest.approx(0.25, rel=1e-15)
    coords = {(-0.75, -0.25, 0.25, 0.75)}
    for axis in grid.axes:
        assert tuple(axis) in coords
    assert np.sum(np.full(16, grid.weight)) == pytest.approx(4.0)
    assert np.all(grid.nodes[:, 1] != 0.0)


def test_make_grid_rejects_bad_n():
    with pytest.raises(ValueError):
        make_grid(2, BOX, 5)  # odd
    with pytest.raises(ValueError):
        make_grid(2, BOX, 2)  # too few
    with pytest.raises(ValueError, match="interface"):
        # shifted box whose cell centers land on x2 = 0
        make_grid(2, ((-1.0, 1.0), (-0.75, 1.25)), 4)


def test_grid_masks_and_mirror():
    grid = make_grid(2, BOX, 8)
    assert np.count_nonzero(grid.mask_plus) == 32
    assert np.count_nonzero(grid.mask_minus) == 32
    mirror = grid.mirror_index()
    flipped = grid.nodes[mirror]
    assert np.allclose(flipped[:, 0], grid.nodes[:, 0])
    assert np.allclose(flipped[:, 1], -grid.nodes[:, 1])


# ---------------------------------------------------------------------------
# commutator assembly


def test_commutator_per_half_constant_is_exact_zero():
    def b(points):
        pts = np.asarray(points)
        return np.where(pts[..., 1] > 0, 1.0, -0.5)

    for N in (16, 32, 64):
        grid = make_grid(2, BOX, N)
        op = assemble_commutator(b, assemble_riesz(1, grid))
        assert not np.any(op.matrix)


def test_commutator_two_node_hand_value():
    nodes = np.array([[0.25, 0.25], [0.25, 0.75]])
    grid = QuadratureGrid(
        box=np.array([[0.0, 0.5], [0.0, 1.0]]),
        shape=(1, 2),
        axes=[np.array([0.25]), np.array([0.25, 0.75])],
        nodes=nodes,
        spacing=np.array([0.5, 0.5]),
        weight=1.0,
    )
    op = assemble_commutator(lambda p: np.asarray(p)[..., 1], assemble_riesz(2, grid))
    k12 = riesz_kernel(KernelParams(2, 2), nodes[0], nodes[1])
    k21 = riesz_kernel(KernelParams(2, 2), nodes[1], nodes[0])
    assert op.matrix[0, 0] == 0.0 and op.matrix[1, 1] == 0.0
    assert op.matrix[0, 1] == pytest.approx(-0.5 * k12, rel=1e-14)
    assert op.matrix[1, 0] == pytest.approx(0.5 * k21, rel=1e-14)


def test_commutator_sign_flips_with_symbol():
    grid = make_grid(2, BOX, 16)
    op_pos = assemble_commutator(_bump, assemble_riesz(1, grid))
    op_neg = assemble_commutator(lambda p: -_bump(p), assemble_riesz(1, grid))
    assert np.array_equal(op_neg.matrix, -op_pos.matrix)


def test_commutator_cross_half_entries_are_positive_zero():
    grid = make_grid(2, BOX, 16)
    for ell in (1, 2):
        op = assemble_commutator(lambda p: _bump(p, (0.2, 0.0), 0.8), assemble_riesz(ell, grid))
        for rows, cols in ((grid.mask_plus, grid.mask_minus), (grid.mask_minus, grid.mask_plus)):
            cross = op.matrix[np.ix_(rows, cols)]
            assert np.all(cross == 0.0) and not np.any(np.signbit(cross))


def test_commutator_symmetric_exactly_for_tangential_ell():
    # K_l(y, x) = -K_l(x, y) bit for bit for l < n; the normal kernel's
    # reflected term is swap-symmetric instead
    grid = make_grid(2, BOX, 16)
    m1 = assemble_commutator(_bump, assemble_riesz(1, grid)).matrix
    m2 = assemble_commutator(_bump, assemble_riesz(2, grid)).matrix
    assert np.array_equal(m1, m1.T)
    assert not np.array_equal(m2, m2.T)


def test_half_blocks_split():
    grid = make_grid(2, BOX, 8)
    op = assemble_commutator(lambda p: _bump(p, (0.2, 0.0), 0.8), assemble_riesz(2, grid))
    plus, minus = grid.mask_plus, grid.mask_minus
    blocks = [B * op.weight for B in op.blocks]
    assert len(blocks) == 2
    assert np.array_equal(blocks[0], op.matrix[np.ix_(plus, plus)])
    assert np.array_equal(blocks[1], op.matrix[np.ix_(minus, minus)])


def _per_symbol_matrix(b, ell, grid):
    """The whole weighted commutator matrix from one kernel pass per
    symbol: same-half pairs in row chunks of 512, cross-half entries left
    at +0.0."""
    params = KernelParams(grid.dim, ell)
    bv = b(grid.nodes)
    kernel = np.zeros((len(bv), len(bv)))
    for idx in grid.half_indices():
        xh = grid.nodes[idx]
        for i0 in range(0, len(idx), 512):
            rows = idx[i0 : i0 + 512]
            K = riesz_kernel(params, xh[i0 : i0 + 512, None, :], xh[None, :, :], singular="zero")
            kernel[rows[:, None], idx] = (bv[rows, None] - bv[None, idx]) * K
    return kernel * grid.weight


@pytest.mark.parametrize("ell", [1, 2])
def test_shared_riesz_blocks_match_per_symbol_assembly(ell):
    # N = 40 puts 800 nodes in each half, so the rows span several chunks
    grid = make_grid(2, BOX, 40)
    riesz = assemble_riesz(ell, grid)
    for sym in symbol_family("default", 2):
        op = assemble_commutator(sym, riesz)
        want = _per_symbol_matrix(sym, ell, grid)
        assert np.array_equal(op.matrix, want)
        for idx, block in zip(grid.half_indices(), (B * op.weight for B in op.blocks)):
            assert np.array_equal(block, want[np.ix_(idx, idx)])


def test_stored_blocks_are_exactly_symmetric_for_tangential_ell():
    grid = make_grid(2, BOX, 16)
    riesz = assemble_riesz(1, grid)
    assert all(np.array_equal(K, -K.T) for K in riesz.blocks)
    for sym in symbol_family("default", 2):
        for B in assemble_commutator(sym, riesz).blocks:
            assert np.array_equal(B, B.T)


def test_control_blocks_are_exact_zeros():
    grid = make_grid(2, BOX, 16)
    controls = [s for s in symbol_family("default", 2) if s.kind == "perhalf-constant"]
    for ell in (1, 2):
        riesz = assemble_riesz(ell, grid)
        for sym in controls:
            for B in assemble_commutator(sym, riesz).blocks:
                assert np.all(B == 0.0)


def test_half_indices_reject_interface_nodes():
    nodes = np.array([[0.25, 0.0], [0.25, 0.5]])
    grid = QuadratureGrid(
        box=np.array([[0.0, 0.5], [-0.25, 0.75]]),
        shape=(1, 2),
        axes=[np.array([0.25]), np.array([0.0, 0.5])],
        nodes=nodes,
        spacing=np.array([0.5, 0.5]),
        weight=0.25,
    )
    with pytest.raises(ValueError, match="interface"):
        grid.half_indices()
    with pytest.raises(ValueError, match="interface"):
        assemble_riesz(1, grid)
    one_half = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 4)
    (idx,) = one_half.half_indices()
    assert np.array_equal(idx, np.arange(16))


def test_operator_matrix_validation():
    grid = make_grid(2, BOX, 4)
    with pytest.raises(ValueError, match="half sizes"):
        OperatorMatrix(blocks=[np.ones((8, 8))], grid=grid, ell=1)
    with pytest.raises(ValueError, match="half sizes"):
        OperatorMatrix(blocks=[np.ones((8, 8)), np.ones((8, 7))], grid=grid, ell=1)
    bad = np.zeros((8, 8))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(blocks=[np.zeros((8, 8)), bad], grid=grid, ell=1)
    zeros = [np.zeros((8, 8)), np.zeros((8, 8))]
    full = np.ones(8, dtype=bool)
    for cores, match in (
        ([full], "one core per block"),
        ([np.arange(8), full], "boolean mask"),
        ([np.ones(8), full], "boolean mask"),
        ([np.array([0, 1]), full], "boolean mask"),
        ([np.ones((1, 8), dtype=bool), full], "boolean mask"),
        ([np.ones(9, dtype=bool), full], "boolean mask"),
        ([np.ones(7, dtype=bool), full], "boolean mask"),
    ):
        with pytest.raises(ValueError, match=match):
            OperatorMatrix(zeros, grid, 1, "", cores)
    op = OperatorMatrix(zeros, grid, 2, "b")
    assert op.weight == grid.weight and (op.ell, op.symbol) == (2, "b")
    assert all(np.array_equal(core, full) for core in op.cores)


# ---------------------------------------------------------------------------
# support cores


@pytest.mark.parametrize("N", [16, 32])
def test_commutator_vanishes_off_its_core(N):
    grid = make_grid(2, BOX, N)
    riesz = assemble_riesz(2, grid)
    symbols = symbol_family("default", 2) + symbol_family("divergence", 2)
    for sym in symbols:
        op = assemble_commutator(sym, riesz)
        for idx, block, core in zip(grid.half_indices(), op.blocks, op.cores):
            bh = sym(grid.nodes[idx])
            rest = ~core
            if rest.any():
                # the core is where b leaves its one off-core value ...
                assert np.array_equal(core, bh != bh[rest][0])
            # ... so the corner is 0 * K
            assert np.all(block[np.ix_(rest, rest)] == 0.0)
        if sym.kind == "perhalf-constant":
            assert all(np.count_nonzero(core) == 0 for core in op.cores)


def test_core_background_is_the_most_frequent_value():
    grid = make_grid(2, BOX, 16)
    sym = next(s for s in symbol_family("default", 2) if s.name == "bump_a35")
    lifted = assemble_commutator(lambda x: sym(x) + 0.7, assemble_riesz(1, grid))
    plain = assemble_commutator(sym, assemble_riesz(1, grid))
    for a, b in zip(lifted.cores, plain.cores):
        assert np.array_equal(a, b)
    assert np.count_nonzero(lifted.cores[0]) > 0 and np.count_nonzero(lifted.cores[1]) == 0


def test_riesz_operator_core_is_every_position():
    grid = make_grid(2, BOX, 8)
    op = assemble_riesz(1, grid)
    for idx, core in zip(grid.half_indices(), op.cores):
        assert np.array_equal(core, np.ones(len(idx), dtype=bool))


# ---------------------------------------------------------------------------
# raw Riesz assembly


def test_riesz_matrix_cross_half_block_zero():
    grid = make_grid(2, BOX, 16)
    op = assemble_riesz(1, grid)
    cross = op.matrix[np.ix_(grid.mask_plus, grid.mask_minus)]
    assert not np.any(cross)
    assert not np.any(op.matrix[np.ix_(grid.mask_minus, grid.mask_plus)])


def test_riesz_matrix_gating_action_on_vectors():
    grid = make_grid(2, BOX, 16)
    op = assemble_riesz(2, grid)
    f = np.where(grid.mask_plus, 1.0, 0.0) * _bump(grid.nodes, (0.3, 0.6), 0.5)
    out = op.matrix @ f
    assert not np.any(out[grid.mask_minus])


def _top_singular_value(mat, iters=30):
    rng = np.random.default_rng(0)
    v = rng.normal(size=mat.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = mat.T @ (mat @ v)
        nw = np.linalg.norm(w)
        v = w / nw
    return math.sqrt(nw)


def test_riesz_operator_norm_stable_under_refinement():
    norms = []
    for N in (16, 32, 64):
        grid = make_grid(2, BOX, N)
        op = assemble_riesz(1, grid)
        norms.append(_top_singular_value(op.matrix))
    assert max(norms) / min(norms) < 3.0


def test_riesz_term_symmetry_split():
    # Tangential kernel: both the direct and the reflected term carry the
    # antisymmetric numerator x1 - y1 over swap-symmetric denominators,
    # so the whole one-half block is antisymmetric.  Normal kernel: the
    # reflected numerator x2 + y2 is swap-symmetric, so M + M^T isolates
    # exactly twice the reflected term.
    grid = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 8)
    op1 = assemble_riesz(1, grid)
    assert np.allclose(op1.matrix + op1.matrix.T, 0.0, atol=1e-15)

    op2 = assemble_riesz(2, grid)
    params = KernelParams(2, 2)
    x = grid.nodes[:, None, :]
    y = grid.nodes[None, :, :]
    d1 = x[..., 0] - y[..., 0]
    summ = x[..., 1] + y[..., 1]
    reflected = -params.cn * summ / (d1**2 + summ**2) ** 1.5
    np.fill_diagonal(reflected, 0.0)
    sym = op2.matrix + op2.matrix.T
    assert np.allclose(sym, 2.0 * reflected * grid.weight, atol=1e-13)


# ---------------------------------------------------------------------------
# semigroup application


def test_semigroup_preserves_constants_interior():
    grid = make_grid(2, BOX, 48)
    f = SampledField(grid, np.ones(len(grid.nodes)))
    out = apply_semigroup(f, 0.01, grid)
    interior = np.max(np.abs(grid.nodes), axis=1) < 1.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_semigroup_gating_exact():
    grid = make_grid(2, BOX, 32)
    f = SampledField(grid, np.where(grid.mask_plus, _bump(grid.nodes), 0.0))
    out = apply_semigroup(f, 0.05, grid)
    assert not np.any(out.values[grid.mask_minus])


def test_semigroup_composition():
    grid = make_grid(2, BOX, 48)
    f = SampledField(grid, _bump(grid.nodes, (0.1, 0.4), 0.3))
    t, s = 0.015, 0.025
    two_step = apply_semigroup(apply_semigroup(f, t, grid), s, grid)
    one_step = apply_semigroup(f, t + s, grid)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-6


def test_semigroup_matches_even_extension_route():
    grid = make_grid(2, BOX, 48)
    raw = _bump(grid.nodes, (0.0, 0.5), 0.25)
    f_plus = np.where(grid.mask_plus, raw, 0.0)
    neumann = apply_semigroup(SampledField(grid, f_plus), 0.01, grid)
    mirror = grid.mirror_index()
    f_even = np.where(grid.mask_plus, f_plus, f_plus[mirror])
    full = apply_semigroup(SampledField(grid, f_even), 0.01, grid, kernel="full")
    err = np.abs(neumann.values - full.values)[grid.mask_plus]
    assert np.max(err) < 1e-6


def test_semigroup_box_kernel_fixes_constants_at_large_t():
    grid = make_grid(2, BOX, 24)
    f = SampledField(grid, np.where(grid.mask_plus, 2.0, -1.0))
    out = apply_semigroup(f, 2.0, grid, kernel="neumann-box")
    assert np.max(np.abs(out.values - f.values)) < 1e-9


def _reference_axis_matrices(t, grid, kernel):
    """The axis matrices from the literal formulas: the free Gaussian; the
    Gaussian plus its mirror image in x_n = 0, gated to same-sign pairs;
    and the image sum on an interval with reflecting ends, on each side
    of x_n = 0 for the last axis."""

    def gauss(d):
        return np.exp(-(d**2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)

    def interval(x, a, b):
        length = b - a
        reach = int(np.ceil(10.0 * np.sqrt(t) / (2.0 * length))) + 1
        diff = x[:, None] - x[None, :]
        summ = x[:, None] + x[None, :] - 2.0 * a
        out = np.zeros_like(diff)
        for i in range(-reach, reach + 1):
            out += gauss(diff + 2.0 * i * length)
            out += gauss(summ + 2.0 * i * length)
        return out

    mats = []
    for j, (c, dx) in enumerate(zip(grid.axes, grid.spacing)):
        last = j == grid.dim - 1
        if kernel == "full" or (kernel == "neumann" and not last):
            mats.append(gauss(c[:, None] - c[None, :]) * dx)
        elif kernel == "neumann":
            gate = (c[:, None] * c[None, :] >= 0.0).astype(float)
            mats.append((gauss(c[:, None] - c[None, :]) + gauss(c[:, None] + c[None, :])) * gate * dx)
        elif not last:
            mats.append(interval(c, *grid.box[j]) * dx)
        else:
            mat = np.zeros((c.size, c.size))
            pos, neg = c > 0.0, c < 0.0
            mat[np.ix_(pos, pos)] = interval(c[pos], 0.0, grid.box[j, 1])
            mat[np.ix_(neg, neg)] = interval(c[neg], grid.box[j, 0], 0.0)
            mats.append(mat * dx)
    return mats


@pytest.mark.parametrize(
    "box, N",
    [
        (BOX, 16),
        (((-1.0, 3.0), (-2.5, 1.5)), 40),
        (((-3.0, 3.0),) * 3, 8),
        (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 12),
    ],
)
def test_heat_axis_matrices_match_the_literal_formulas_bit_for_bit(box, N):
    grid = make_grid(len(box), box, N)
    for t in (1e-3, 0.0156, 0.3, 1.0, 10.0, 37.0):
        for kernel in ("full", "neumann", "neumann-box"):
            got = heat_axis_matrices(t, grid, kernel)
            want = _reference_axis_matrices(t, grid, kernel)
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]


@pytest.mark.parametrize("box", [((-2.0, 2.0), (0.25, 4.25)), ((-2.0, 2.0), (-3.0, -0.5))])
def test_box_kernel_fixes_constants_on_a_one_sided_box(box):
    # the walls are the box faces: x_n = 0 lies outside the box and
    # reflects nothing
    grid = make_grid(2, box, 16)
    ones = SampledField(grid, np.ones(len(grid.nodes)))
    floor = float(np.max(grid.spacing)) ** 2
    times = [t for t in default_time_grid() if t >= floor]
    assert len(times) > 30
    for t in times:
        out = apply_semigroup(ones, t, grid, kernel="neumann-box")
        assert np.max(np.abs(out.values - 1.0)) <= 4e-15


def test_semigroup_rejects_bad_t():
    grid = make_grid(2, BOX, 8)
    f = SampledField(grid, np.ones(len(grid.nodes)))
    with pytest.raises(ValueError, match="positive"):
        apply_semigroup(f, 0.0, grid)
    with pytest.raises(ValueError):
        apply_semigroup(f, -1.0, grid)


# ---------------------------------------------------------------------------
# export


def test_matrix_export_roundtrip(tmp_path):
    grid = make_grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 8)
    op = assemble_commutator(_bump, assemble_riesz(2, grid))
    path = tmp_path / "mat.bin"
    export_matrix(op, path)
    mat, header, sidecar = read_matrix(path)
    assert np.array_equal(mat, op.matrix)
    assert header["n"] == 2 and header["N"] == 8 and header["ell"] == 2
    assert sidecar["rows"] == 64 and sidecar["cols"] == 64
    assert sidecar["weight"] == pytest.approx(grid.weight)
    # payload really is column-major float64 after the 32-byte header
    blob = path.read_bytes()
    assert blob[:7] == b"NRLMAT1"
    payload = np.frombuffer(blob[32:], dtype="<f8").reshape((64, 64), order="F")
    assert np.array_equal(payload, op.matrix)


def test_export_bytes_are_zeros_plus_blocks(tmp_path):
    grid = make_grid(2, BOX, 8)
    odd = next(s for s in symbol_family("default", 2) if s.name == "odd_bump")
    op = assemble_commutator(odd, assemble_riesz(2, grid))
    path = tmp_path / "mat.bin"
    export_matrix(op, path)
    whole = np.zeros((64, 64))
    for idx, block in zip(grid.half_indices(), (B * op.weight for B in op.blocks)):
        whole[np.ix_(idx, idx)] = block
    blob = path.read_bytes()
    assert blob == struct.pack("<8sqqq", b"NRLMAT1\x00", 2, 8, 2) + whole.astype("<f8").tobytes(order="F")
    payload = np.frombuffer(blob[32:], dtype="<f8").reshape((64, 64), order="F")
    plus, minus = grid.mask_plus, grid.mask_minus
    for cross in (payload[np.ix_(plus, minus)], payload[np.ix_(minus, plus)]):
        assert np.all(cross == 0.0) and not np.any(np.signbit(cross))


@settings(max_examples=30, deadline=None)
@given(
    N=st.sampled_from([4, 6, 8]),
    ell=st.sampled_from([1, 2]),
    width=st.floats(0.25, 8.0),
    height=st.floats(0.25, 8.0),
    data=st.data(),
)
def test_export_read_roundtrip_property(N, ell, width, height, data):
    grid = make_grid(2, ((-0.5 * width, 0.5 * width), (-height, height)), N)
    values = data.draw(arrays(np.float64, len(grid.nodes), elements=st.floats(-1e6, 1e6)))
    op = assemble_commutator(values, assemble_riesz(ell, grid))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mat.bin"
        export_matrix(op, path)
        mat, header, sidecar = read_matrix(path)
    # bit for bit, signed zeros included
    assert mat.tobytes() == op.matrix.tobytes()
    assert header == {"n": 2, "N": N, "ell": ell}
    assert sidecar["weight"] == op.weight
    assert sidecar["box"] == [float(v) for v in grid.box.reshape(-1)]


def test_read_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 56)
    with pytest.raises(ValueError, match="bad magic"):
        read_matrix(path)


# ---------------------------------------------------------------------------
# micro-quadrature


def test_ball_microgrid_covers_ball():
    ball = Ball(np.array([0.4, 0.7]), 0.1, "plus")
    nodes, w = ball_microgrid(ball, points_per_axis=8)
    assert np.all(ball.contains(nodes))
    area = w * len(nodes)
    assert area == pytest.approx(math.pi * 0.1**2, rel=0.05)


def test_ball_microgrid_rejects_ball_outside_half():
    ball = Ball(np.array([0.0, -1.0]), 0.1, "plus")
    with pytest.raises(ValueError, match="micro-grid"):
        ball_microgrid(ball, points_per_axis=4)
