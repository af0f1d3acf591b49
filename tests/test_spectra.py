"""Singular-value plumbing: frozen diag examples, trace identities,
weak-norm suprema, Schatten inclusions, mixed kernel norms and the
factorization upper bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab.discretize import assemble_commutator, assemble_riesz, make_grid
from nrlab.harness import _bump_symbol, _odd_bump_symbol, symbol_family
from nrlab.spectra import (
    SingularSpectrum,
    abs_power,
    column_norms,
    mixed_norm,
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
    for _ in range(20):
        m = rng.normal(size=(5, 5))
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
    return assemble_commutator(sym, assemble_riesz(ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N)))


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
    wide = _bump_symbol("wide", (0.25, 0.75), 1.2)
    return [
        ("lifted", lambda x: bump(x) + 0.7, 16),
        ("wide", wide, 8),
        ("odd_bump", odd, 16),
    ]


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("case", range(3))
def test_core_spectrum_matches_full_svd(case, ell):
    name, sym, N = _core_cases()[case]
    op = assemble_commutator(sym, assemble_riesz(ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N)))
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
    make=st.sampled_from([_bump_symbol, _odd_bump_symbol]),
    cx=st.floats(-1.5, 1.5),
    cy=st.floats(-1.5, 1.5),
    radius=st.floats(0.3, 1.2),
    amplitude=st.floats(-3.0, 3.0).filter(lambda a: abs(a) >= 0.05),
    N=st.sampled_from([8, 10, 12, 14, 16]),
    ell=st.sampled_from([1, 2]),
)
def test_block_spectrum_identities_property(make, cx, cy, radius, amplitude, N, ell):
    sym = make("random", (cx, cy), radius, amplitude)
    op = assemble_commutator(sym, assemble_riesz(ell, make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), N)))
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
