"""Metamorphic oracles: relations between runs that the mathematics
fixes, checked on every row of the built-in symbol families.

The S^p norm of [b, R_ell] is unchanged by the dilation x -> lam x (it
is unitary and commutes with the Neumann Laplacian and R_ell), by the
mirror x_n -> -x_n (it swaps the two halves) and by the tangential
mirror x_1 -> -x_1 (it maps each half to itself).  The Besov norm at
alpha = n/p is dilation invariant too.  A family is a tuple of plain
rows, so a dilated or mirrored family is a comprehension over them.
The sum of the squared singular values is the squared Frobenius
norm, which the stored strips give without a spectrum."""

import itertools

import numpy as np
import pytest

from nrlab.besov import BesovParams, besov_neumann_norm, default_shift_grid
from nrlab.discretize import assemble_commutator, make_grid
from nrlab.harness import _FAMILIES, ExperimentConfig, _bumps, _symbol, upper_bound_audit
from nrlab.spectra import singular_values

BOX = ((-2.0, 2.0), (-2.0, 2.0))
ROWS = _FAMILIES["default"] + _FAMILIES["divergence"]


def _dilate(row, lam):
    """The row of b(x / lam), times lam for odd_bump (its x_n factor):
    every centre and radius times lam."""
    name, kind, *args = row
    if kind == "halfconst":
        return row
    parts = args[0] if kind == "sum" else (args,)
    scaled = tuple((tuple(lam * c for c in centre), lam * radius) for centre, radius in parts)
    return (name, kind, scaled) if kind == "sum" else (name, kind, *scaled[0])


def _mirror(row, axis=-1):
    """The row of b with x_axis negated, itself negated for odd_bump if
    that is x_n: every centre's coordinate `axis` negated, and for x_n a
    halfconst row's two values swapped."""
    name, kind, *args = row
    if kind == "halfconst":
        return (name, kind, args[1], args[0]) if axis == -1 else row
    parts = args[0] if kind == "sum" else (args,)
    mirrored = tuple(
        (tuple(-c if j == axis % len(centre) else c for j, c in enumerate(centre)), radius) for centre, radius in parts
    )
    return (name, kind, mirrored) if kind == "sum" else (name, kind, *mirrored[0])


def _spectrum(row, ell, box, N=16):
    return singular_values(assemble_commutator(_symbol(row), ell, make_grid(2, box, N))).values


def test_row_transforms_touch_only_centres_radii_and_values():
    bump, odd, multi = ("b", "bump", (0.5, -0.25), 0.5), ("o", "odd_bump", (0.5, 0.0), 1.0), ROWS[7]
    assert _dilate(bump, 2.0) == ("b", "bump", (1.0, -0.5), 1.0)
    assert _dilate(multi, 0.5)[2][0] == ((-0.2, 0.225), 0.25)
    assert _mirror(bump) == ("b", "bump", (0.5, 0.25), 0.5)
    assert _mirror(odd) == ("o", "odd_bump", (0.5, -0.0), 1.0)
    assert _mirror(("h", "halfconst", 1.0, -0.5)) == ("h", "halfconst", -0.5, 1.0)
    assert _mirror(bump, 0) == ("b", "bump", (-0.5, -0.25), 0.5)
    assert _mirror(("h", "halfconst", 1.0, -0.5), 0) == ("h", "halfconst", 1.0, -0.5)
    for axis in (-1, 0):
        assert [_mirror(_mirror(row, axis), axis) for row in ROWS] == list(ROWS)


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("ell", [1, 2])
def test_spectra_are_exactly_dilation_invariant(ell, lam):
    # powers of two scale every node, centre, radius and weight exactly,
    # so the dilated spectrum is the same to the last bit
    box = tuple((lam * lo, lam * hi) for lo, hi in BOX)
    for row in ROWS:
        want = _spectrum(row, ell, BOX) * (lam if row[1] == "odd_bump" else 1.0)
        assert np.array_equal(_spectrum(_dilate(row, lam), ell, box), want), row[0]


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_extension_route_is_dilation_invariant(lam, N):
    # at alpha = n/p the weight |h|^-(n + p alpha) cancels the Jacobian
    # lam^(2n) of (x, h) -> (lam x, lam h); the shift grid's log radii are
    # rounded to 9 decimals, which moves the weights by ~1e-10 relative
    params = BesovParams(alpha=0.5, p=4.0, q=4.0)

    def norms(rows, box):
        grid = make_grid(2, box, N)
        return besov_neumann_norm([_symbol(row) for row in rows], params, grid, default_shift_grid(grid, 16, 16))

    box = tuple((lam * lo, lam * hi) for lo, hi in BOX)
    base, dilated = norms(ROWS, BOX), norms([_dilate(row, lam) for row in ROWS], box)
    for row, want, got in zip(ROWS, base, dilated, strict=True):
        if row[1] == "halfconst":
            assert want == 0.0 and got == 0.0, row[0]
        else:
            want *= lam if row[1] == "odd_bump" else 1.0
            assert want > 0.0 and abs(got - want) <= 1e-9 * want, (row[0], abs(got - want) / want)


@pytest.mark.parametrize("ell", [1, 2])
def test_spectra_are_mirror_invariant(ell):
    # the normal (-1) and tangential (0) mirrors reorder the nodes, and
    # with them the summation order
    for axis, row in itertools.product((-1, 0), ROWS):
        want, got = _spectrum(row, ell, BOX), _spectrum(_mirror(row, axis), ell, BOX)
        assert got.shape == want.shape, (axis, row[0])
        if row[1] == "halfconst":
            assert np.all(want == 0.0) and np.all(got == 0.0), (axis, row[0])
        else:
            assert want[0] > 0.0 and np.max(np.abs(got - want)) <= 1e-14 * want[0], (axis, row[0])


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("ell", [1, 2])
def test_squared_singular_values_sum_to_the_stored_pieces_frobenius_norm(ell, N):
    # sum s_k^2 = ||B w||_F^2 per block, and B is stored as its row strip
    # plus its column block or, where that is None (a symmetric block),
    # the row strip's off-core columns once more
    grid = make_grid(2, BOX, N)
    for row in ROWS:
        op = assemble_commutator(_symbol(row), ell, grid)
        s2 = float(np.sum(singular_values(op).values ** 2))
        pieces = zip(op.cores, op.row_strips, op.col_strips)
        fro2 = op.weight**2 * sum(np.sum(R**2) + np.sum((R[:, ~core] if C is None else C) ** 2) for core, R, C in pieces)
        if row[1] == "halfconst":
            assert s2 == 0.0 and fro2 == 0.0, row[0]
        else:
            assert fro2 > 0.0 and abs(s2 - fro2) <= 1e-13 * fro2, (row[0], abs(s2 - fro2) / fro2)


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("ell", [1, 2])
def test_upper_audit_is_dilation_invariant(monkeypatch, ell, lam):
    """The upper audit on a dilated box, with the default family dilated
    with it, gives the same verdict and the same norms (odd_bump's times
    lam).

    The lower audit has no such oracle: its generation window
    k_min..stat_k_max is absolute (cube side 2^-k), so a dilation by lam
    maps generation k to k - log2(lam), and the same window then holds
    other cubes."""
    monkeypatch.setitem(_FAMILIES, "dilated", tuple(_dilate(row, lam) for row in _FAMILIES["default"]))
    box = tuple((lam * lo, lam * hi) for lo, hi in BOX)
    base = upper_bound_audit(ExperimentConfig(ell=ell, grid_sizes=(16,)))
    dilated = upper_bound_audit(ExperimentConfig(ell=ell, grid_sizes=(16,), box=box, family="dilated"))
    assert dilated.passed == base.passed
    keys = ("russo_bound", "mixed_full", "mixed_plus", "mixed_minus")
    assert [row.symbol for row in dilated.rows] == [row.symbol for row in base.rows]
    for want, got in zip(base.rows, dilated.rows):
        scale = lam if want.symbol == "odd_bump" else 1.0
        expected = [scale * want.schatten] + [scale * want.aux[key] for key in keys]
        actual = [got.schatten] + [got.aux[key] for key in keys]
        np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=0.0, err_msg=want.symbol)


# every row with its dilations by 1/2 and 2 and its x_n mirror
TRANSFORMED = [variant for row in ROWS for variant in (row, _dilate(row, 0.5), _dilate(row, 2.0), _mirror(row))]


def test_symbol_support_is_the_rows_bumps():
    for row in TRANSFORMED:
        assert _symbol(row).support == _bumps(row), row


def test_symbols_are_their_half_constant_off_their_support():
    # the extension route and the oscillation statistic skip points off
    # Symbol.support, so a ball too small would change their outputs:
    # seeded points and points just outside each ball's rim must read the
    # per-half constant exactly
    rng = np.random.default_rng(11)
    theta = 2.0 * np.pi * np.arange(256) / 256
    rim = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for row in TRANSFORMED:
        sym = _symbol(row)
        balls = [(np.asarray(centre), radius) for centre, radius in sym.support]
        points = np.concatenate(
            [rng.uniform(-6.0, 6.0, size=(20000, 2))] + [c + r * (1.0 + 1e-9) * rim for c, r in balls]
        )
        points = points[points[:, -1] != 0.0]
        for c, r in balls:
            points = points[np.linalg.norm(points - c, axis=-1) > r]
        assert len(points) > 18000, row
        values, upper = sym(points), points[:, -1] > 0.0
        if row[1] == "halfconst":
            assert np.all(values[upper] == row[2]) and np.all(values[~upper] == row[3]), row
        else:
            assert np.all(values == 0.0), row
