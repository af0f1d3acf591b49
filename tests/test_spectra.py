"""Singular-value plumbing: frozen diag examples, trace identities,
weak-norm suprema, Schatten inclusions, mixed kernel norms and the
factorization upper bound."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab.discretize import OperatorMatrix, Symbol, assemble_commutator, make_grid
from nrlab.harness import _symbol, symbol_family
from nrlab.spectra import (
    SingularSpectrum,
    abs_power,
    column_norms,
    mixed_norm,
    operator_column_norms,
    russo_bound,
    schatten_norm,
    singular_values,
    weak_outer_norm,
    weak_schatten_norm,
)


def test_singular_values_diag_and_zero():
    s = singular_values(np.diag([3.0, 4.0]))
    assert np.array_equal(s.values, [4.0, 3.0])
    z = singular_values(np.zeros((5, 5)))
    assert np.array_equal(z.values, np.zeros(5))


def test_singular_values_trace_and_norm_identities():
    rng = np.random.default_rng(17)
    for i in range(20):
        m = rng.normal(size=(5, 5))
        if i % 2:
            # symmetric in its first row and column only: not a symmetric block
            m[0] = m[:, 0]
        s = singular_values(m).values
        frob2 = float(np.sum(m * m))
        assert np.sum(s**2) == pytest.approx(frob2, abs=1e-10 * max(frob2, 1))
        # largest singular value is the operator 2-norm
        assert s[0] == pytest.approx(np.linalg.norm(m, 2), abs=1e-10 * s[0])


def test_singular_values_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(bad)


def test_spectrum_is_sorted_and_validated():
    s = SingularSpectrum(np.array([1.0, 3.0, 2.0]))
    assert np.array_equal(s.values, [3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        SingularSpectrum(np.array([]))


def test_schatten_frozen_values():
    s = singular_values(np.diag([3.0, 4.0]))
    assert schatten_norm(s, 1.0) == pytest.approx(7.0, rel=1e-14)
    assert schatten_norm(s, 2.0) == pytest.approx(5.0, rel=1e-14)


def test_schatten_p2_is_frobenius():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(12, 12))
    assert schatten_norm(singular_values(m), 2.0) == pytest.approx(
        float(np.sqrt(np.sum(m * m))), abs=1e-10
    )


def test_schatten_extreme_p_no_underflow():
    s = SingularSpectrum(np.array([2.0, 1.0, 0.5]))
    assert schatten_norm(s, 200.0) == pytest.approx(2.0, rel=1e-10)
    # quasi-norm branch (p < 1) works without error
    assert schatten_norm(s, 0.5) == pytest.approx(
        (2.0**0.5 + 1.0 + 0.5**0.5) ** 2, rel=1e-12
    )


def test_schatten_rejects_nonpositive_p():
    s = SingularSpectrum(np.array([1.0]))
    with pytest.raises(ValueError):
        schatten_norm(s, 0.0)
    with pytest.raises(ValueError):
        weak_schatten_norm(s, -1.0)


def test_weak_schatten_frozen_examples():
    ones = SingularSpectrum(np.ones(9))
    assert weak_schatten_norm(ones, 2.0) == pytest.approx(3.0, rel=1e-14)
    harmonic = SingularSpectrum(1.0 / np.arange(1.0, 50.0))
    assert weak_schatten_norm(harmonic, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_weak_below_strong_and_inclusion():
    rng = np.random.default_rng(31)
    for _ in range(100):
        s = SingularSpectrum(np.abs(rng.normal(size=rng.integers(1, 30))))
        p = float(rng.uniform(0.5, 6.0))
        assert weak_schatten_norm(s, p) <= schatten_norm(s, p) + 1e-12
        q = p + float(rng.uniform(0.1, 3.0))
        assert schatten_norm(s, q) <= schatten_norm(s, p) + 1e-12


def test_spectrum_invariant_under_permutation():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(10, 10))
    perm = rng.permutation(10)
    s0 = singular_values(m).values
    s1 = singular_values(m[perm][:, perm]).values
    assert np.allclose(s0, s1, atol=1e-10)


# ---------------------------------------------------------------------------
# block spectra of assembled commutators


def _commutator(name, ell, N=16):
    sym = next(s for s in symbol_family("default", 2) if s.name == name)
    return assemble_commutator(sym, ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N))


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("name", ["bump_a35", "odd_bump"])
def test_block_spectrum_matches_full_svd(name, ell):
    op = _commutator(name, ell)
    plus_block, minus_block = op.blocks
    # bump_a35 lives in the plus half; odd_bump straddles the interface
    assert np.any(minus_block) == (name == "odd_bump")
    s = singular_values(op).values
    full = np.linalg.svd(op.matrix, compute_uv=False)
    assert s.size == full.size
    assert np.max(np.abs(s - full)) <= 1e-13 * full[0]


def _core_cases():
    bump = next(s for s in symbol_family("default", 2) if s.name == "bump_a35")
    odd = next(s for s in symbol_family("default", 2) if s.name == "odd_bump")
    wide = _symbol(("wide", "bump", (0.25, 0.75), 1.2))
    return [
        ("lifted", lambda x: bump(x) + 0.7, 16),
        ("wide", wide, 8),
        ("odd_bump", odd, 16),
    ]


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("case", range(3))
def test_core_spectrum_matches_full_svd(case, ell):
    name, sym, N = _core_cases()[case]
    op = assemble_commutator(sym, ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N))
    sizes = [np.count_nonzero(core) for core in op.cores]
    if name == "lifted":
        # a non-zero background is not in the core
        assert 0 < sizes[0] < len(op.blocks[0]) and sizes[1] == 0
    if name == "wide":
        assert sizes[0] > len(op.blocks[0]) // 2
    if name == "odd_bump":
        assert sizes[0] > 0 and sizes[1] > 0
    s = singular_values(op).values
    full = np.linalg.svd(op.matrix, compute_uv=False)
    assert s.size == full.size
    assert np.max(np.abs(s - full)) <= 1e-13 * full[0]


def test_core_spectrum_stays_within_twice_the_core(monkeypatch):
    op = _commutator("bump_a35", 1, N=32)
    s = max(np.count_nonzero(core) for core in op.cores)
    assert 0 < s < len(op.blocks[0]) // 4
    shapes = []
    for name in ("eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def record(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)
    singular_values(op)
    assert shapes and all(max(shape) <= 2 * s for shape in shapes)


@pytest.mark.parametrize("ell", [1, 2])
def test_tangential_spectra_take_the_symmetric_path(monkeypatch, ell):
    # for ell < n the column strip is the row strip's transpose, so every
    # block is symmetric and its spectrum comes from eigvalsh; for ell = n
    # a block with a non-empty core goes through the SVD
    calls = {"eigvalsh": 0, "svd": 0}
    for name in calls:

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 16)
    ops = [assemble_commutator(sym, ell, grid) for sym in symbol_family("default", 2)]
    for op in ops:
        singular_values(op)
    nonempty = sum(np.count_nonzero(core) > 0 for op in ops for core in op.cores)
    assert nonempty >= 6
    if ell == 1:
        assert calls == {"eigvalsh": 2 * len(ops), "svd": 0}
    else:
        assert calls == {"eigvalsh": 2 * len(ops) - nonempty, "svd": nonempty}


def test_symmetry_is_read_from_the_strips_not_from_ell(monkeypatch):
    # an ell = 1 operator holding the ell = 2 strips of odd_bump: its
    # column strips are not its row strips' transposes, so both blocks
    # must go through the SVD; eigvalsh reads one triangle of H and would
    # return another spectrum
    op2 = _commutator("odd_bump", 2)
    op = OperatorMatrix(op2.grid, 1, "odd_bump", op2.cores, op2.row_strips, op2.col_strips)
    assert all(np.count_nonzero(core) > 0 for core in op.cores)
    assert not any(np.array_equal(C, R.T) for R, C in zip(op.row_strips, op.col_strips))
    calls = {"eigvalsh": 0, "svd": 0}
    for name in calls:

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    s = singular_values(op).values
    assert calls == {"eigvalsh": 0, "svd": 2}
    monkeypatch.undo()
    # the dense view scatters the strips, so it is the matrix they describe
    full = np.linalg.svd(op.matrix, compute_uv=False)
    assert s.size == full.size
    assert np.max(np.abs(s - full)) <= 1e-13 * full[0]


def test_symmetric_block_spectrum_allocates_no_off_core_column_piece():
    # a symmetric block gathers B_SS and B_CS only: B_SC = B_CS^T is not
    # copied.  At N = 64 (ell = 1) the worst symbol of the default family,
    # odd_bump (196 core nodes per half), peaked at 11.7 MiB with the
    # copy and 6.5 MiB without it
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 64)
    peaks = []
    for sym in symbol_family("default", 2):
        op = assemble_commutator(sym, 1, grid)
        tracemalloc.start()
        try:
            singular_values(op)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 9 * 2**20


@pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
def test_abs_power_is_bit_identical_to_abs_pow(p):
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(23)
    x = np.concatenate(
        [
            [0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).tiny / 3, 1e-300, -1e-160, 1e150, np.inf, -np.inf],
            rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200),
            np.zeros(50),
        ]
    )
    rng.shuffle(x)
    for arr in (x, x.reshape(-1, 9)):
        with np.errstate(over="ignore"):
            got, want = abs_power(arr, p), np.abs(arr) ** p
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_control_commutators_have_zero_spectrum():
    for name in ("halfconst", "uniform"):
        for ell in (1, 2):
            s = singular_values(_commutator(name, ell)).values
            assert s.size == 256 and np.all(s == 0.0)


def test_symmetric_matrix_spectrum_is_absolute_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9))
    sym = a + a.T
    assert np.min(np.linalg.eigvalsh(sym)) < 0.0
    s = singular_values(sym).values
    assert np.allclose(s, np.linalg.svd(sym, compute_uv=False), rtol=0, atol=1e-13 * s[0])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["bump", "odd_bump"]),
    cx=st.floats(-1.5, 1.5),
    cy=st.floats(-1.5, 1.5),
    radius=st.floats(0.3, 1.2),
    amplitude=st.floats(-3.0, 3.0).filter(lambda a: abs(a) >= 0.05),
    N=st.sampled_from([8, 10, 12, 14, 16]),
    ell=st.sampled_from([1, 2]),
)
def test_block_spectrum_identities_property(kind, cx, cy, radius, amplitude, N, ell):
    base = _symbol(("random", kind, (cx, cy), radius))
    sym = Symbol("random", lambda x: amplitude * base(x))
    op = assemble_commutator(sym, ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N))
    s = singular_values(op).values
    # the union of the two blocks' spectra is the whole matrix's spectrum
    full = np.linalg.svd(op.matrix, compute_uv=False)
    assert s.size == full.size
    assert np.max(np.abs(s - full)) <= 1e-13 * full[0]
    # S^4 trace identity: sum s_k^4 = ||T^T T||_F^2
    gram = op.matrix.T @ op.matrix
    fro2 = float(np.sum(gram * gram))
    assert abs(float(np.sum(s**4)) - fro2) <= 1e-12 * fro2


# ---------------------------------------------------------------------------
# mixed norms


def test_mixed_norm_requires_p_above_2():
    with pytest.raises(ValueError, match="p > 2"):
        mixed_norm([np.ones((4, 4))], 2.0, 1.0)
    with pytest.raises(ValueError, match="p > 2"):
        column_norms([np.ones((4, 4))], 2.0, 1.0)
    with pytest.raises(ValueError):
        russo_bound([np.ones((4, 4))], 1.5, 1.0)


def test_mixed_norms_take_a_block_list_and_one_weight():
    K = np.ones((4, 4))
    op = _commutator("bump_a35", 1, N=8)
    for blocks in (K, op, [], [np.ones(4)]):
        with pytest.raises(ValueError, match="list of 2-d kernel blocks"):
            mixed_norm(blocks, 4.0, 1.0)
        with pytest.raises(ValueError, match="list of 2-d kernel blocks"):
            russo_bound(blocks, 4.0, 1.0)
    for weight in (np.full(4, 0.5), 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="one positive quadrature weight"):
            mixed_norm([K], 4.0, weight)
    with pytest.raises(ValueError, match="mode"):
        mixed_norm([K], 4.0, 1.0, "l2")


def test_schatten_norms_take_a_spectrum():
    s = np.array([1.0, 3.0, 2.0])
    assert schatten_norm(s, 2.0) == schatten_norm(SingularSpectrum(s), 2.0)
    assert weak_schatten_norm(s, 2.0) == weak_schatten_norm(SingularSpectrum(s), 2.0)
    # a matrix is not read as its entries, nor an operator taken apart
    for bad in (np.diag([3.0, 4.0]), _commutator("bump_a35", 1, N=8), 2.0):
        for norm in (schatten_norm, weak_schatten_norm):
            with pytest.raises(ValueError, match="singular_values"):
                norm(bad, 4.0)


@pytest.mark.parametrize("ell", [1, 2])
def test_operator_column_norms_match_the_dense_blocks_bit_for_bit(ell):
    # the default family (empty, narrow and two-sided cores), a core of
    # one node and a core of all but one node per half (every value
    # distinct: the background is the smallest); sums over one strip
    # column or one off-core column must still run in the dense order
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 16)
    one = np.where(np.arange(len(grid.nodes)) == 200, 1.5, 0.0)
    cases = symbol_family("default", 2) + [one, np.sin(np.arange(len(grid.nodes)))]
    for b in cases:
        op = assemble_commutator(b, ell, grid)
        sizes = [np.count_nonzero(core) for core in op.cores]
        blocks = op.blocks
        for p in (2.5, 4.0):
            direct, adjoint = operator_column_norms(op, p)
            for name, got, dense in (("direct", direct, blocks), ("adjoint", adjoint, [B.T for B in blocks])):
                want = column_norms(dense, p, op.weight)
                assert [g.tobytes() for g in got] == [g.tobytes() for g in want], (sizes, p, name)
    assert sizes == [127, 127]
    with pytest.raises(ValueError, match="p > 2"):
        operator_column_norms(op, 2.0)


def test_operator_column_norms_power_a_transposed_column_strip_once(monkeypatch):
    # for ell < n no column block is stored, so the column strip is the
    # row strip's transpose and its norms are the row strip's, swapped;
    # an explicit copy of that transpose's off-core rows is read as a
    # stored block, powers both strips, and gives the same norms bit for
    # bit
    from nrlab import spectra

    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 16)
    odd = next(s for s in symbol_family("default", 2) if s.name == "odd_bump")
    op = assemble_commutator(odd, 1, grid)
    cols = [R.T[~core] for core, R in zip(op.cores, op.row_strips)]
    copied = OperatorMatrix(op.grid, op.ell, op.symbol, op.cores, op.row_strips, cols)
    powers = []
    abs_power = spectra.abs_power
    monkeypatch.setattr(spectra, "abs_power", lambda x, p: powers.append(x.shape) or abs_power(x, p))
    norms = [operator_column_norms(o, 4.0) for o in (op, copied)]
    assert len(powers) == 2 + 4
    assert [[g.tobytes() for g in side] for side in norms[0]] == [[g.tobytes() for g in side] for side in norms[1]]
    # the two lists hold distinct arrays, as for a non-symmetric block
    assert all(g is not h for g, h in zip(*norms[0]))


def test_column_norms_add_rows_in_order_whatever_the_layout():
    # np.sum adds a contiguous axis pairwise: the columns of a transposed
    # block, or a lone (m, 1) column, would be added in another order
    # than the columns of a C-contiguous block.  The row-by-row rule
    # gives every layout the same bits.
    rng = np.random.default_rng(17)
    K = rng.normal(size=(300, 40))
    for p in (2.5, 4.0):
        got = column_norms([K.T], p, 0.01)[0]
        assert got.tobytes() == column_norms([np.ascontiguousarray(K.T)], p, 0.01)[0].tobytes()
        whole = column_norms([K], p, 0.01)[0]
        for j in (0, 7, 39):
            for col in (K[:, j : j + 1], np.ascontiguousarray(K[:, j : j + 1])):
                assert column_norms([col], p, 0.01)[0].tobytes() == whole[j : j + 1].tobytes()


def test_mixed_norm_is_column_norms_then_outer_norm():
    rng = np.random.default_rng(61)
    blocks = [rng.normal(size=(7, 7)), rng.normal(size=(5, 5))]
    w = 0.1
    inner = column_norms(blocks, 4.0, w)
    assert [g.shape for g in inner] == [(7,), (5,)]
    for B, g in zip(blocks, inner):
        assert np.array_equal(g, np.sum(np.abs(B) ** 4.0 * w, axis=0) ** 0.25)
    assert mixed_norm(blocks, 4.0, w) == weak_outer_norm(np.concatenate(inner), 4.0, w)
    # block-diagonal blocks read as the whole kernel with zero cross blocks
    whole = np.zeros((12, 12))
    whole[:7, :7], whole[7:, 7:] = blocks
    for mode in ("strong", "weak"):
        assert mixed_norm(blocks, 4.0, w, mode) == pytest.approx(mixed_norm([whole], 4.0, w, mode), rel=1e-14)


def test_weak_outer_norm_sums_the_repeated_weight():
    # weak_outer_norm's cumulative measure is the running sum of the
    # weight, as a column-weight array gives it, not weight * j
    rng = np.random.default_rng(67)
    g = rng.uniform(0.5, 1.0, size=200)
    q = 4.0 / 3.0
    for w in (0.1, 1.0 / 3.0, 0.0625):
        order = np.argsort(g)[::-1]
        want = float(np.max(g[order] * np.cumsum(np.full(g.size, w)) ** (1.0 / q)))
        assert weak_outer_norm(g, 4.0, w) == want
    assert weak_outer_norm(np.zeros(5), 4.0, 0.5) == 0.0


def test_mixed_norm_indicator_kernel():
    # unit-measure grid on both axes: inner L^p is 1 for every y, and
    # both outer norms are 1
    m = 64
    K = np.ones((m, m))
    for mode in ("strong", "weak"):
        val = mixed_norm([K], 4.0, 1.0 / m, mode)
        assert val == pytest.approx(1.0, rel=1e-12)


def test_mixed_norm_separable_kernel():
    rng = np.random.default_rng(13)
    p = 4.0
    q = p / (p - 1.0)
    g = np.abs(rng.normal(size=40)) + 0.1
    h = np.abs(rng.normal(size=40)) + 0.1
    w = 0.05
    K = g[:, None] * h[None, :]
    val = mixed_norm([K], p, w, "strong")
    expected = float(np.sum(g**p * w) ** (1 / p) * np.sum(h**q * w) ** (1 / q))
    assert val == pytest.approx(expected, abs=1e-10 * expected)


def test_mixed_norm_weak_below_strong_random():
    rng = np.random.default_rng(29)
    for _ in range(20):
        K = rng.normal(size=(15, 18))
        w = float(rng.uniform(0.01, 0.2))
        p = float(rng.uniform(2.1, 8.0))
        weak = mixed_norm([K], p, w, "weak")
        strong = mixed_norm([K], p, w, "strong")
        assert weak <= strong + 1e-12


def test_mixed_norm_weak_exact_on_two_level_kernel():
    # inner values take two levels; the sorted supremum is computable by
    # hand: g values 2 (weight 0.5) and 1 (weight 1.5 more).  One row of
    # weight 0.5 carries inner value |K| 0.5^(1/p)
    p = 4.0
    q = p / (p - 1.0)
    inner_levels = np.array([2.0, 1.0, 1.0, 1.0])
    K = (inner_levels / 0.5 ** (1 / p))[None, :]
    val = mixed_norm([K], p, 0.5, "weak")
    candidates = [2.0 * 0.5 ** (1 / q), 1.0 * 1.0 ** (1 / q), 1.0 * 2.0 ** (1 / q)]
    assert val == pytest.approx(max(candidates), rel=1e-14)


def test_russo_zero_kernel():
    assert russo_bound([np.zeros((6, 6))], 4.0, 1.0) == 0.0
    assert weak_schatten_norm(singular_values(np.zeros((6, 6))), 4.0) == 0.0


def test_russo_rank_one_against_top_singular_value():
    # With STRONG mixed norms the factorization dominates s_1 with
    # constant one (Hoelder through L^2).  The weak-outer-norm variant
    # does not: the exact discrete weak norm undercuts the strong one by
    # a bounded factor, so the weak bound lands below s_1 on rank-one
    # kernels.  The operator-level weak inequality carries that implicit
    # constant; the audit asserts it with explicit slack on the actual
    # commutator kernels, not here.
    rng = np.random.default_rng(41)
    m = 30
    w = 1.0 / m
    g = np.abs(rng.normal(size=m)) + 0.05
    h = np.abs(rng.normal(size=m)) + 0.05
    K = g[:, None] * h[None, :]
    # matrix acting on l2(w): top singular value = |g|_{l2(w)} |h|_{l2(w)}
    s1 = float(np.sqrt(np.sum(g**2 * w) * np.sum(h**2 * w)))
    strong = np.sqrt(mixed_norm([K], 4.0, w, "strong") * mixed_norm([K.T], 4.0, w, "strong"))
    assert strong >= s1 * (1 - 1e-12)
    weak = russo_bound([K], 4.0, w)
    assert 0.5 * s1 <= weak <= strong


def test_russo_matches_manual_composition():
    rng = np.random.default_rng(55)
    K = rng.normal(size=(9, 9))
    w = 0.1
    direct = mixed_norm([K], 3.0, w)
    adjoint = mixed_norm([K.T], 3.0, w)
    assert russo_bound([K], 3.0, w) == np.sqrt(direct * adjoint)
