"""Grids, matrix assembly, semigroup application and binary export.

The assembly oracles are hand evaluations on tiny grids; the semigroup
oracles are conservation, gating, composition and the even-extension
route; export is checked byte-for-byte."""

import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrlab import discretize
from nrlab.besov import default_time_grid
from nrlab.discretize import (
    OperatorMatrix,
    QuadratureGrid,
    Symbol,
    apply_axis_matrices,
    apply_semigroup,
    assemble_commutator,
    ball_microgrid,
    export_matrix,
    heat_axis_matrices,
    make_grid,
    read_matrix,
    support_core,
)
from nrlab.dyadic import SampledField
from nrlab.harness import symbol_family
from nrlab.kernels import Ball, KernelParams, riesz_kernel
from nrlab.spectra import singular_values

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


@pytest.mark.parametrize("N", [True, 16.9, 16.0, "16"])
def test_make_grid_refuses_a_non_integer_n_naming_it(N):
    # int() would truncate 16.9 to a 16-cell grid and parse "16"
    with pytest.raises(ValueError, match=r"N must be an int, got " + re.escape(repr(N))):
        make_grid(2, BOX, N)


def test_make_grid_refuses_fewer_than_two_axes_naming_n():
    # every kernel and symbol family is at least two-dimensional
    for n, box in ((1, ((-2.0, 2.0),)), (0, np.empty((0, 2)))):
        with pytest.raises(ValueError, match=f"grids need n >= 2 axes, got n = {n}"):
            make_grid(n, box, 16)


def test_make_grid_accepts_a_numpy_integer_n():
    grid = make_grid(2, BOX, np.int64(8))
    assert grid.shape == (8, 8) and type(grid.shape[0]) is int


def test_grid_masks_and_mirror():
    grid = make_grid(2, BOX, 8)
    assert np.count_nonzero(grid.mask_plus) == 32
    assert np.count_nonzero(grid.mask_minus) == 32
    mirror = grid.mirror_index()
    flipped = grid.nodes[mirror]
    assert np.allclose(flipped[:, 0], grid.nodes[:, 0])
    assert np.allclose(flipped[:, 1], -grid.nodes[:, 1])


# ---------------------------------------------------------------------------
# symbols


@pytest.mark.parametrize(
    "kind, support, message",
    [
        pytest.param("generic", (((0.0, 0.5), 0.0),), "support radii", id="zero-radius"),
        pytest.param("generic", (((0.0, 0.5), -0.3),), "support radii", id="negative-radius"),
        pytest.param("generic", (((0.0, 0.5), math.inf),), "support radii", id="infinite-radius"),
        pytest.param("generic", (((0.0, 0.5), math.nan),), "support radii", id="nan-radius"),
        pytest.param("generic", (((0.5,), 0.3),), "support centres", id="one-coordinate-centre"),
        pytest.param("generic", (((0.0, 0.5), 0.3), ((0.0, 0.5, 0.1), 0.3)), "support centres", id="mixed-lengths"),
        pytest.param("generic", (((0.0, math.nan), 0.3),), "support centres", id="nan-centre"),
        pytest.param("perhalf-constant", (((0.0, 0.5), 0.3),), "perhalf-constant", id="ball-on-a-control"),
    ],
)
def test_symbol_refuses_a_malformed_support_naming_it(kind, support, message):
    with pytest.raises(ValueError, match=message):
        Symbol("s", np.zeros_like, kind, support)


def test_symbol_support_is_stored_as_float_balls():
    assert Symbol("s", np.zeros_like).support is None
    assert Symbol("c", np.zeros_like, "perhalf-constant", ()).support == ()
    sym = Symbol("b", np.zeros_like, support=[(np.array([0, 1]), 2)])
    assert sym.support == (((0.0, 1.0), 2.0),)
    assert all(type(v) is float for v in sym.support[0][0] + sym.support[0][1:])


# ---------------------------------------------------------------------------
# commutator assembly


def test_commutator_per_half_constant_is_exact_zero():
    def b(points):
        pts = np.asarray(points)
        return np.where(pts[..., 1] > 0, 1.0, -0.5)

    for N in (16, 32, 64):
        grid = make_grid(2, BOX, N)
        op = assemble_commutator(b, 1, grid)
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
    op = assemble_commutator(lambda p: np.asarray(p)[..., 1], 2, grid)
    k12 = riesz_kernel(KernelParams(2, 2), nodes[0], nodes[1])
    k21 = riesz_kernel(KernelParams(2, 2), nodes[1], nodes[0])
    assert op.matrix[0, 0] == 0.0 and op.matrix[1, 1] == 0.0
    assert op.matrix[0, 1] == pytest.approx(-0.5 * k12, rel=1e-14)
    assert op.matrix[1, 0] == pytest.approx(0.5 * k21, rel=1e-14)


def test_commutator_sign_flips_with_symbol():
    grid = make_grid(2, BOX, 16)
    op_pos = assemble_commutator(_bump, 1, grid)
    op_neg = assemble_commutator(lambda p: -_bump(p), 1, grid)
    assert np.array_equal(op_neg.matrix, -op_pos.matrix)


def test_commutator_cross_half_entries_are_positive_zero():
    grid = make_grid(2, BOX, 16)
    for ell in (1, 2):
        op = assemble_commutator(lambda p: _bump(p, (0.2, 0.0), 0.8), ell, grid)
        for rows, cols in ((grid.mask_plus, grid.mask_minus), (grid.mask_minus, grid.mask_plus)):
            cross = op.matrix[np.ix_(rows, cols)]
            assert np.all(cross == 0.0) and not np.any(np.signbit(cross))


def test_commutator_symmetric_exactly_for_tangential_ell():
    # K_l(y, x) = -K_l(x, y) bit for bit for l < n; the normal kernel's
    # reflected term is swap-symmetric instead
    grid = make_grid(2, BOX, 16)
    m1 = assemble_commutator(_bump, 1, grid).matrix
    m2 = assemble_commutator(_bump, 2, grid).matrix
    assert np.array_equal(m1, m1.T)
    assert not np.array_equal(m2, m2.T)


def test_half_blocks_split():
    grid = make_grid(2, BOX, 8)
    op = assemble_commutator(lambda p: _bump(p, (0.2, 0.0), 0.8), 2, grid)
    plus, minus = grid.mask_plus, grid.mask_minus
    blocks = [B * op.weight for B in op.blocks]
    assert len(blocks) == 2
    assert np.array_equal(blocks[0], op.matrix[np.ix_(plus, plus)])
    assert np.array_equal(blocks[1], op.matrix[np.ix_(minus, minus)])


def _whole_blocks(b, ell, grid):
    """Each half's whole block (b_i - b_j) K_ij, unweighted, or K_ij
    alone for b=None, from one kernel pass per symbol in row chunks of
    512: the dense assembly the core strips replace."""
    params = KernelParams(grid.dim, ell)
    bv = None if b is None else b(grid.nodes)
    blocks = []
    for idx in grid.half_indices():
        xh, bh = grid.nodes[idx], None if bv is None else bv[idx]
        block = np.empty((len(idx), len(idx)))
        for i0 in range(0, len(idx), 512):
            K = riesz_kernel(params, xh[i0 : i0 + 512, None, :], xh[None, :, :], singular="zero")
            if bh is not None:
                K = (bh[i0 : i0 + 512, None] - bh[None, :]) * K
            block[i0 : i0 + 512] = K
        blocks.append(block)
    return blocks


def _per_symbol_matrix(b, ell, grid):
    """The whole weighted matrix from `_whole_blocks` (the Riesz
    operator's for b=None), cross-half entries left at +0.0."""
    kernel = np.zeros((len(grid.nodes), len(grid.nodes)))
    for idx, block in zip(grid.half_indices(), _whole_blocks(b, ell, grid)):
        kernel[np.ix_(idx, idx)] = block
    return kernel * grid.weight


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("family", ["default", "divergence"])
def test_strips_are_the_core_rows_and_columns_of_the_whole_blocks(family, ell):
    # the row strip is B[S, :] bit for bit, signed zeros included; for
    # ell = n so is the column block B[~S, S] of a non-empty core.  For
    # ell < n no column block is stored: the row strip's transpose has
    # the same values, with the opposite zero where x_1 = y_1 (see
    # test_kernels.py)
    grid = make_grid(2, BOX, 32)
    for sym in symbol_family(family, 2):
        op = assemble_commutator(sym, ell, grid)
        assert op.ell == ell and op.symbol == sym.name
        for block, core, R, C in zip(_whole_blocks(sym, ell, grid), op.cores, op.row_strips, op.col_strips):
            assert R.tobytes() == block[core].tobytes()
            if ell == 2 and core.any():
                assert C.tobytes() == block[np.ix_(~core, core)].tobytes()
            else:
                assert C is None
                assert np.array_equal(R[:, ~core].T, block[np.ix_(~core, core)])


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("N", [16, 32])
def test_blocks_are_the_whole_blocks_and_only_symmetric_blocks_drop_their_columns(N, ell):
    # the dense blocks scatter each stored entry once and are the whole
    # blocks evaluated directly; a block keeps no column block exactly
    # when it is symmetric by construction: every block for ell < n, and
    # a block whose empty core makes it zero
    grid = make_grid(2, BOX, N)
    for sym in symbol_family("default", 2):
        op = assemble_commutator(sym, ell, grid)
        for B, block, core, C in zip(op.blocks, _whole_blocks(sym, ell, grid), op.cores, op.col_strips):
            assert np.array_equal(B, block)
            assert (C is None) == (ell == 1 or not core.any())


def test_assembly_evaluates_each_stored_entry_once(monkeypatch):
    # s m row-strip pairs per block, plus (m - s) s column-block pairs
    # for a non-empty core at ell = n: the core block is not evaluated
    # twice, and a symmetric block's column block not at all
    grid = make_grid(2, BOX, 16)
    pairs = []

    def counted(params, x, y, *args, _original=discretize.riesz_kernel, **kwargs):
        pairs.append(x.shape[0] * y.shape[1])
        return _original(params, x, y, *args, **kwargs)

    monkeypatch.setattr(discretize, "riesz_kernel", counted)
    for ell in (1, 2):
        for sym in symbol_family("default", 2):
            pairs.clear()
            op = assemble_commutator(sym, ell, grid)
            sizes = [(np.count_nonzero(core), core.size) for core in op.cores]
            column = [(m - s) * s if ell == 2 else 0 for s, m in sizes]
            assert sum(pairs) == sum(s * m for s, m in sizes) + sum(column), (sym.name, ell)


@pytest.mark.parametrize("ell", [1, 2])
def test_shared_riesz_blocks_match_per_symbol_assembly(ell):
    # N = 40 puts 800 nodes in each half, so the rows span several chunks
    grid = make_grid(2, BOX, 40)
    for sym in symbol_family("default", 2):
        op = assemble_commutator(sym, ell, grid)
        want = _per_symbol_matrix(sym, ell, grid)
        assert np.array_equal(op.matrix, want)
        for idx, block in zip(grid.half_indices(), (B * op.weight for B in op.blocks)):
            assert np.array_equal(block, want[np.ix_(idx, idx)])


def test_stored_blocks_are_exactly_symmetric_for_tangential_ell():
    grid = make_grid(2, BOX, 16)
    assert all(np.array_equal(K, -K.T) for K in _whole_blocks(None, 1, grid))
    for sym in symbol_family("default", 2):
        for B in assemble_commutator(sym, 1, grid).blocks:
            assert np.array_equal(B, B.T)


def test_control_blocks_are_exact_zeros():
    grid = make_grid(2, BOX, 16)
    controls = [s for s in symbol_family("default", 2) if s.kind == "perhalf-constant"]
    for ell in (1, 2):
        for sym in controls:
            for B in _whole_blocks(sym, ell, grid):
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
        assemble_commutator(np.array([1.0, 2.0]), 1, grid)
    one_half = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 4)
    (idx,) = one_half.half_indices()
    assert np.array_equal(idx, np.arange(16))


def test_operator_matrix_validation():
    grid = make_grid(2, BOX, 4)
    full, empty = np.ones(8, dtype=bool), np.zeros(8, dtype=bool)
    narrow = np.arange(8) < 3
    strips = [np.zeros((8, 8)), np.zeros((8, 8))]
    narrow_rows = [np.zeros((3, 8)), np.zeros((8, 8))]
    for rows, cols, cores in (
        ([np.ones((8, 8))], [None], [full, full]),
        (strips, [None], [full, full]),
        (strips, [np.zeros((0, 8)), np.zeros((1, 8))], [full, full]),
        (strips, [None, None], [narrow, full]),
        # a column block holds the off-core rows only, in their own order
        (narrow_rows, [np.zeros((8, 3)), None], [narrow, full]),
        (narrow_rows, [np.zeros((3, 5)), None], [narrow, full]),
    ):
        with pytest.raises(ValueError, match="one row strip"):
            OperatorMatrix(grid, 1, "", cores, rows, cols)
    bad = np.zeros((8, 8))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(grid, 1, "", [full, full], [np.zeros((8, 8)), bad], [None, None])
    with pytest.raises(ValueError, match="non-finite"):
        OperatorMatrix(grid, 2, "", [narrow, full], narrow_rows, [np.full((5, 3), np.nan), None])
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
            OperatorMatrix(grid, 1, "", cores, strips, [None, None])
    # each entry is stored once: B[S, :] in the row strip, B[~S, S] in
    # the column block, or B[S, ~S]^T for a symmetric block (None)
    row = np.zeros((3, 8))
    row[1, 5] = 1.0
    col = np.zeros((5, 3))
    col[0, 2] = 2.0
    op = OperatorMatrix(grid, 2, "", [narrow, empty], [row, np.zeros((0, 8))], [col, None])
    assert (op.blocks[0][1, 5], op.blocks[0][5, 1], op.blocks[0][3, 2]) == (1.0, 0.0, 2.0)
    op = OperatorMatrix(grid, 1, "", [narrow, empty], [row, np.zeros((0, 8))], [None, None])
    assert op.blocks[0][1, 5] == op.blocks[0][5, 1] == 1.0
    op = OperatorMatrix(grid, 2, "b", [full, full], strips, [np.zeros((0, 8))] * 2)
    assert op.weight == grid.weight and (op.ell, op.symbol) == (2, "b")
    assert all(np.array_equal(core, full) for core in op.cores)
    # an empty core holds an empty row strip and no column block
    op = OperatorMatrix(grid, 1, "c", [empty, empty], [np.zeros((0, 8))] * 2, [None] * 2)
    assert [R.shape for R in op.row_strips] == [(0, 8), (0, 8)]
    assert all(np.all(B == 0.0) for B in op.blocks)


# ---------------------------------------------------------------------------
# support cores


@pytest.mark.parametrize("N", [16, 32])
def test_commutator_vanishes_off_its_core(N):
    grid = make_grid(2, BOX, N)
    symbols = symbol_family("default", 2) + symbol_family("divergence", 2)
    for sym in symbols:
        op = assemble_commutator(sym, 2, grid)
        # the dense views are zero off the core by construction, so the
        # rule is read from an independent evaluation of the whole blocks
        for idx, block, core in zip(grid.half_indices(), _whole_blocks(sym, 2, grid), op.cores):
            bh = sym(grid.nodes[idx])
            rest = ~core
            if rest.any():
                # the core is where b leaves its one off-core value ...
                assert np.array_equal(core, bh != bh[rest][0])
            # ... so the corner is 0 * K
            assert np.all(block[np.ix_(rest, rest)] == 0.0)
        if sym.kind == "perhalf-constant":
            assert all(np.count_nonzero(core) == 0 for core in op.cores)


def test_per_half_constant_holds_no_strip():
    grid = make_grid(2, BOX, 16)
    for ell in (1, 2):
        for sym in (s for s in symbol_family("default", 2) if s.kind == "perhalf-constant"):
            op = assemble_commutator(sym, ell, grid)
            assert [R.shape for R in op.row_strips] == [(0, 128), (0, 128)]
            assert op.col_strips == [None, None]
            s = singular_values(op).values
            assert s.size == 256 and np.all(s == 0.0)


def test_core_background_is_the_most_frequent_value():
    grid = make_grid(2, BOX, 16)
    sym = next(s for s in symbol_family("default", 2) if s.name == "bump_a35")
    lifted = assemble_commutator(lambda x: sym(x) + 0.7, 1, grid)
    plain = assemble_commutator(sym, 1, grid)
    for a, b in zip(lifted.cores, plain.cores):
        assert np.array_equal(a, b)
    assert np.count_nonzero(lifted.cores[0]) > 0 and np.count_nonzero(lifted.cores[1]) == 0


def test_support_core_leaves_the_most_frequent_value():
    grid = make_grid(2, BOX, 16)
    plus = grid.half_indices()[0]
    sym = next(s for s in symbol_family("default", 2) if s.name == "bump_a35")
    lifted = sym(grid.nodes[plus]) + 0.7
    core = support_core(lifted)
    assert np.array_equal(core, lifted != 0.7)
    assert 0 < np.count_nonzero(core) < plus.size
    # a per-half constant has an empty core
    assert not support_core(np.full(plus.size, -1.25)).any()
    # on a tie the lowest of the most frequent values is the background,
    # which need not be the lowest value
    assert support_core(np.array([2.0, 3.0, 2.0, 3.0, 1.0])).tolist() == [False, True, False, True, True]


# ---------------------------------------------------------------------------
# the Riesz kernel on the grid


def test_riesz_matrix_cross_half_block_zero():
    grid = make_grid(2, BOX, 16)
    x = grid.nodes
    matrix = riesz_kernel(KernelParams(2, 1), x[:, None, :], x[None, :, :], singular="zero")
    cross = matrix[np.ix_(grid.mask_plus, grid.mask_minus)]
    assert not np.any(cross)
    assert not np.any(matrix[np.ix_(grid.mask_minus, grid.mask_plus)])


def test_riesz_matrix_gating_action_on_vectors():
    grid = make_grid(2, BOX, 16)
    f = np.where(grid.mask_plus, 1.0, 0.0) * _bump(grid.nodes, (0.3, 0.6), 0.5)
    out = _per_symbol_matrix(None, 2, grid) @ f
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
        norms.append(_top_singular_value(_per_symbol_matrix(None, 1, grid)))
    assert max(norms) / min(norms) < 3.0


def test_riesz_term_symmetry_split():
    # Tangential kernel: both the direct and the reflected term carry the
    # antisymmetric numerator x1 - y1 over swap-symmetric denominators,
    # so the whole one-half block is antisymmetric.  Normal kernel: the
    # reflected numerator x2 + y2 is swap-symmetric, so M + M^T isolates
    # exactly twice the reflected term.
    grid = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 8)
    m1 = _per_symbol_matrix(None, 1, grid)
    assert np.allclose(m1 + m1.T, 0.0, atol=1e-15)

    m2 = _per_symbol_matrix(None, 2, grid)
    params = KernelParams(2, 2)
    x = grid.nodes[:, None, :]
    y = grid.nodes[None, :, :]
    d1 = x[..., 0] - y[..., 0]
    summ = x[..., 1] + y[..., 1]
    reflected = -params.cn * summ / (d1**2 + summ**2) ** 1.5
    np.fill_diagonal(reflected, 0.0)
    sym = m2 + m2.T
    assert np.allclose(sym, 2.0 * reflected * grid.weight, atol=1e-13)


# ---------------------------------------------------------------------------
# semigroup application


def test_semigroup_preserves_constants_interior():
    grid = make_grid(2, BOX, 48)
    f = SampledField(grid, np.ones(len(grid.nodes)))
    out = apply_semigroup(f, 0.01)
    interior = np.max(np.abs(grid.nodes), axis=1) < 1.0
    assert np.max(np.abs(out.values[interior] - 1.0)) < 1e-6


def test_semigroup_gating_exact():
    grid = make_grid(2, BOX, 32)
    f = SampledField(grid, np.where(grid.mask_plus, _bump(grid.nodes), 0.0))
    out = apply_semigroup(f, 0.05)
    assert not np.any(out.values[grid.mask_minus])


def test_semigroup_composition():
    grid = make_grid(2, BOX, 48)
    f = SampledField(grid, _bump(grid.nodes, (0.1, 0.4), 0.3))
    t, s = 0.015, 0.025
    two_step = apply_semigroup(apply_semigroup(f, t), s)
    one_step = apply_semigroup(f, t + s)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-6


def test_semigroup_matches_even_extension_route():
    grid = make_grid(2, BOX, 48)
    raw = _bump(grid.nodes, (0.0, 0.5), 0.25)
    f_plus = np.where(grid.mask_plus, raw, 0.0)
    neumann = apply_semigroup(SampledField(grid, f_plus), 0.01)
    mirror = grid.mirror_index()
    f_even = np.where(grid.mask_plus, f_plus, f_plus[mirror])
    full = apply_semigroup(SampledField(grid, f_even), 0.01, kernel="full")
    err = np.abs(neumann.values - full.values)[grid.mask_plus]
    assert np.max(err) < 1e-6


def test_semigroup_box_kernel_fixes_constants_at_large_t():
    grid = make_grid(2, BOX, 24)
    f = SampledField(grid, np.where(grid.mask_plus, 2.0, -1.0))
    out = apply_semigroup(f, 2.0, kernel="neumann-box")
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
        # the cell [-1, 0] holds one node, and at t = 37 sums 65 images;
        # the first axis has a node at 0 in the second of these and none
        # in the first
        (((-2.0, 2.0), (-1.0, 3.0)), 4),
        (((-2.5, 1.5), (-1.0, 3.0)), 4),
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
    times = [t for t in default_time_grid(1e-3, 10.0, 16) if t >= floor]
    assert len(times) > 30
    for t in times:
        out = apply_semigroup(ones, t, kernel="neumann-box")
        assert np.max(np.abs(out.values - 1.0)) <= 4e-15


@pytest.mark.parametrize(
    "box, N",
    [
        (BOX, 16),
        (((-1.0, 3.0), (-2.5, 1.5)), 40),
        (((-3.0, 3.0),) * 3, 8),
        (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 12),
        # the cell [-1, 0] holds one node, and at t = 37 sums 65 images;
        # the first axis has a node at 0 in the second of these and none
        # in the first
        (((-2.0, 2.0), (-1.0, 3.0)), 4),
        (((-2.5, 1.5), (-1.0, 3.0)), 4),
    ],
)
def test_heat_axis_matrices_on_a_t_array_match_the_per_t_calls(box, N):
    # unsorted, 2-d, and spread from one image per side to several, so
    # the times of one call reach different image counts
    grid = make_grid(len(box), box, N)
    times = np.array([[10.0, 1e-3, 0.3], [37.0, 0.0156, 1.0]])
    for kernel in ("full", "neumann", "neumann-box"):
        stacks = heat_axis_matrices(times, grid, kernel)
        assert [m.shape for m in stacks] == [(2, 3, N, N)] * grid.dim
        for idx in np.ndindex(times.shape):
            one = heat_axis_matrices(times[idx], grid, kernel)
            assert [m[idx].tobytes() for m in stacks] == [m.tobytes() for m in one]


def _tensordot_contraction(values, mats, grid):
    """One field contracted axis by axis with `tensordot`."""
    out = values.reshape(grid.shape)
    for j, mat in enumerate(mats):
        out = np.moveaxis(np.tensordot(mat, out, axes=(1, j)), 0, j)
    return out.reshape(-1)


@pytest.mark.parametrize(
    "box, N",
    [
        (((-2.0, 2.0), (-1.0, 3.0)), 16),
        (BOX, 32),
        (BOX, 40),
        (((-3.0, 3.0),) * 3, 8),
        (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 12),
    ],
)
def test_batched_axis_contraction_matches_one_field_at_a_time(box, N):
    grid = make_grid(len(box), box, N)
    values = np.random.default_rng(5).standard_normal((3, len(grid.nodes)))
    times = np.array([0.01, 0.3, 2.0, 9.0])
    mats = heat_axis_matrices(times, grid, "neumann-box")
    batched = apply_axis_matrices(values, [m[:, None] for m in mats], grid)
    assert batched.shape == (times.size, len(values), len(grid.nodes))
    for k, s in np.ndindex(batched.shape[:2]):
        one = [m[k] for m in mats]
        assert np.array_equal(batched[k, s], apply_axis_matrices(values[s], one, grid))
        assert np.array_equal(batched[k, s], _tensordot_contraction(values[s], one, grid))


@pytest.mark.parametrize("kernel", ["full", "neumann", "neumann-box"])
def test_heat_axis_matrices_refuse_a_non_finite_t(kernel):
    grid = make_grid(2, BOX, 8)
    for t in (math.nan, math.inf, np.array([0.3, math.nan])):
        with pytest.raises(ValueError, match="t must be finite"):
            heat_axis_matrices(t, grid, kernel)


def test_semigroup_rejects_bad_t():
    grid = make_grid(2, BOX, 8)
    f = SampledField(grid, np.ones(len(grid.nodes)))
    with pytest.raises(ValueError, match="positive"):
        apply_semigroup(f, 0.0)
    with pytest.raises(ValueError):
        apply_semigroup(f, -1.0)


# ---------------------------------------------------------------------------
# export


def test_matrix_export_roundtrip(tmp_path):
    grid = make_grid(2, ((-1.0, 1.0), (-1.0, 1.0)), 8)
    op = assemble_commutator(_bump, 2, grid)
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
    op = assemble_commutator(odd, 2, grid)
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


def test_dense_views_evaluate_no_kernel(tmp_path, monkeypatch):
    # the dense views scatter the strips: once assembled, no view and no
    # export evaluates the kernel again (perfbench's layer trace reads
    # `kernel` after each assembly, so its pair counts rely on this too)
    grid = make_grid(2, BOX, 8)
    odd = next(s for s in symbol_family("default", 2) if s.name == "odd_bump")
    calls = []

    def counted(*args, _original=discretize.riesz_kernel, **kwargs):
        calls.append(args)
        return _original(*args, **kwargs)

    monkeypatch.setattr(discretize, "riesz_kernel", counted)
    for ell in (1, 2):
        op = assemble_commutator(odd, ell, grid)
        assert calls, "assembly no longer reaches the counted binding"
        calls.clear()
        op.blocks, op.kernel, op.matrix
        export_matrix(op, tmp_path / f"odd_{ell}.bin")
        assert calls == []


@pytest.mark.parametrize("ell", [1, 2])
def test_export_is_the_per_symbol_matrix(tmp_path, ell):
    grid = make_grid(2, BOX, 8)
    for sym in symbol_family("default", 2):
        path = tmp_path / f"{sym.name}.bin"
        export_matrix(assemble_commutator(sym, ell, grid), path)
        mat = read_matrix(path)[0]
        assert np.array_equal(mat, _per_symbol_matrix(sym, ell, grid))
        if sym.kind == "perhalf-constant":
            # every zero of the export is +0.0, not 0.0 * K_ij
            assert np.all(mat == 0.0) and not np.any(np.signbit(mat))


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
    op = assemble_commutator(values, ell, grid)
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
