"""Dyadic machinery: lattice properties brute-forced over several
generations, node labels and the labelled reductions against a per-cube
node scan, Haar orthonormality/reconstruction, martingale identities
with frozen hand-computed values, medians, energy sums, separated
subcubes and the gradient-oscillation ratio."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrlab.discretize import make_grid
from nrlab.dyadic import (
    Cube,
    DyadicSystem,
    SampledField,
    box_midpoint_mean,
    build_system,
    conditional_expectation,
    dyadic_energy_sum,
    dyadic_energy_sums,
    finest_resolved_generation,
    generation_labels,
    gradient_oscillation_check,
    haar_basis,
    labelled_expectation,
    martingale_difference,
    median,
    nodes_in_cube,
    separated_subcubes,
)
from nrlab.dyadic import _cube_means, _require_resolved
from nrlab.harness import (
    ExperimentConfig,
    _lattice_systems,
    _tail_statistic,
    lattice_shift_sample,
    symbol_family,
)
from reference_forms import children, parent

BOX2 = ((0.0, 2.0), (0.0, 2.0))


def _chi_unit(points):
    pts = np.asarray(points)
    return np.all((pts >= 0.0) & (pts < 1.0), axis=-1).astype(float)


def _field(func, grid):
    return SampledField(grid, func(grid.nodes))


# ---------------------------------------------------------------------------
# system construction and lattice properties


def test_build_system_standard_unit_generation():
    sys0 = build_system("plus", (0.0, 0.0), ((-2, 2), (0, 2)), (0, 0))
    boxes = sorted(tuple(Q.m) for Q in sys0.cubes[0])
    assert boxes == sorted(
        (i, j) for i in range(-2, 2) for j in range(0, 2)
    )


def test_build_system_shifted_flags_straddlers():
    sysh = build_system("plus", (1 / 3, 1 / 3), ((-2, 2), (-2, 2)), (0, 0))
    for Q in sysh.cubes[0]:
        assert Q.vertex[1] >= 0.0
    # the row m_2 = -1 spans (-2/3, 1/3) across the interface and is dropped
    assert min(Q.m[1] for Q in sysh.cubes[0]) == 0


def test_build_system_errors():
    with pytest.raises(ValueError, match="degenerate domain"):
        build_system("plus", (0.0, 0.0), ((-1, 1), (-2, -1)), (0, 1))
    with pytest.raises(ValueError, match="degenerate domain"):
        build_system("minus", (0.0, 0.0), ((-1, 1), (1, 2)), (0, 1))
    with pytest.raises(ValueError, match="shift"):
        build_system("plus", (1.0, 0.5), ((-1, 1), (0, 1)), (0, 1))
    with pytest.raises(ValueError):
        build_system("plus", (0.0, 0.0), ((-1, 1), (0, 1)), (2, 1))


def _boxes(cubes):
    lo = np.array([Q.vertex for Q in cubes])
    side = np.array([[Q.side] for Q in cubes])
    return lo, lo + side


@pytest.mark.parametrize("half", ["plus", "minus"])
@pytest.mark.parametrize("shift", [(0.0, 0.0), (1 / 3, 1 / 3)])
def test_lattice_properties_brute_force(half, shift):
    # six generations; properties restricted to the bounding box
    system = build_system(half, shift, ((-2, 2), (-2, 2)), (-1, 4))
    rng = np.random.default_rng(23)

    for k in system.generations():
        cubes = system.cubes[k]
        if not cubes:
            continue  # coarsest shifted generation: every cube straddles
        lo, hi = _boxes(cubes)
        # (I) disjointness within a generation: no pairwise box overlap
        # (eps absorbs the one-ulp slack of vertex = shift + side*m sums)
        eps = 1e-12
        overlap = np.all(
            (lo[:, None, :] + eps < hi[None, :, :])
            & (lo[None, :, :] + eps < hi[:, None, :]),
            axis=-1,
        )
        np.fill_diagonal(overlap, False)
        assert not overlap.any()
        # (I) covering: interior points of box cap half whose lattice cube
        # lies in the half lie in exactly one kept cube (away from the
        # frame, where cubes may be clipped)
        side = 2.0 ** (-k)
        pts = rng.uniform(-2 + side, 2 - side, size=(500, 2))
        pts[:, 1] = np.abs(pts[:, 1]) * (1 if half == "plus" else -1)
        pts = pts[np.abs(pts[:, 1]) > 1e-9]
        floor_n = shift[1] + side * np.floor((pts[:, 1] - shift[1]) / side)
        pts = pts[floor_n >= 0.0] if half == "plus" else pts[floor_n + side <= 0.0]
        counts = np.sum(
            np.all((pts[:, None, :] >= lo[None]) & (pts[:, None, :] < hi[None]), axis=-1),
            axis=1,
        )
        assert np.all(counts == 1)

    gens = list(system.generations())
    for kc, kf in itertools.combinations(gens, 2):
        if not system.cubes[kc] or not system.cubes[kf]:
            continue  # coarsest shifted generation may be all-straddling
        lo_c, hi_c = _boxes(system.cubes[kc])
        lo_f, hi_f = _boxes(system.cubes[kf])
        eps = 1e-12
        inter = np.all(
            (lo_f[:, None, :] + eps < hi_c[None, :, :])
            & (lo_c[None, :, :] + eps < hi_f[:, None, :]),
            axis=-1,
        )
        contained = np.all(
            (lo_f[:, None, :] >= lo_c[None, :, :] - eps)
            & (hi_f[:, None, :] <= hi_c[None, :, :] + eps),
            axis=-1,
        )
        # (II) fine and coarse cubes are nested or disjoint
        assert np.all(~inter | contained)
        # (III) at most one coarse admissible container per fine cube
        assert np.all(contained.sum(axis=1) <= 1)
        if shift == (0.0, 0.0):
            # aligned box: the unique container always exists
            assert np.all(contained.sum(axis=1) == 1)

    # (IV) every admissible cube splits into exactly 2^n admissible children
    for k in gens[:-1]:
        for Q in system.cubes[k]:
            kids = children(system, Q)
            assert len(kids) == 4
            assert sum(c.volume for c in kids) == pytest.approx(Q.volume, rel=1e-12)
            for c in kids:
                assert np.all(c.vertex >= Q.vertex - 1e-12)
                assert np.all(c.vertex + c.side <= Q.vertex + Q.side + 1e-12)
                assert parent(system, c) == Q


# ---------------------------------------------------------------------------
# node labels and labelled reductions against the per-cube node scan


def _scan_labels(grid, cubes):
    """Position of each node's cube by testing every node against every
    cube; a node claimed by two cubes is an error."""
    labels = np.full(len(grid.nodes), -1)
    hits = np.zeros(len(grid.nodes), dtype=int)
    for i, Q in enumerate(cubes):
        mask = nodes_in_cube(grid, Q)
        labels[mask] = i
        hits += mask
    assert hits.max(initial=0) <= 1
    return labels


def _scan_conditional_expectation(f, k, system):
    out = f.values.copy()
    for Q in system.cubes[k]:
        mask = nodes_in_cube(f.grid, Q)
        if not np.any(mask):
            raise ValueError("grid too coarse")
        vals = f.values[mask]
        out[mask] = vals[0] if np.all(vals == vals[0]) else vals.mean()
    return out


def _scan_energy_sum(b, system, p):
    total = 0.0
    for k in range(system.k_min, system.k_max):
        delta = _scan_conditional_expectation(b, k + 1, system) - _scan_conditional_expectation(b, k, system)
        for Q in system.cubes[k]:
            total += float(np.mean(np.abs(delta[nodes_in_cube(b.grid, Q)]) ** p))
    return total


def _scan_tail(fld, p, pair):
    total = 0.0
    for system in pair:
        for k in system.generations():
            ek = _scan_conditional_expectation(fld, k, system)
            covered = np.zeros(len(fld.grid.nodes), dtype=bool)
            for Q in system.cubes[k]:
                covered |= nodes_in_cube(fld.grid, Q)
            diff = np.abs(fld.values[covered] - ek[covered]) ** p
            total += 2.0 ** (fld.grid.dim * k) * float(np.sum(diff)) * fld.grid.weight
    return total


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.all(np.where(want == 0.0, got == 0.0, np.abs(got - want) <= rel * np.abs(want)))


@pytest.mark.parametrize("N", [12, 16, 24, 32, 40, 64])
def test_labels_match_the_node_scan(N):
    cfg = ExperimentConfig()
    grid = make_grid(2, cfg.box, N)
    k_max = min(finest_resolved_generation(grid), cfg.stat_k_max)
    for shift in lattice_shift_sample(2, 9):
        for half in ("plus", "minus"):
            system = build_system(half, shift, cfg.box, (cfg.k_min, k_max))
            for k in system.generations():
                want = _scan_labels(grid, system.cubes[k])
                assert np.array_equal(system.labels(grid.axes, k), want), (shift, half, k)


def test_labels_match_cube_contains_at_float_vertices():
    # coordinates on and one ulp either side of every float vertex, where
    # the floor of (x - shift) / side can land one index off and where
    # neighbouring float boxes can overlap; the last cube holding a point
    # takes it
    for shift in lattice_shift_sample(2, 9):
        for half in ("plus", "minus"):
            system = build_system(half, shift, ((-2, 2), (-2, 2)), (-1, 3))
            for k in system.generations():
                cubes = system.cubes[k]
                if not cubes:
                    continue
                corners = np.array([Q.vertex for Q in cubes] + [Q.vertex + Q.side for Q in cubes])
                coords = np.concatenate([corners, np.nextafter(corners, -np.inf), np.nextafter(corners, np.inf)])
                axes = [np.unique(coords[:, j]) for j in range(2)]
                pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
                inside = np.array([Q.contains(pts) for Q in cubes])
                want = np.where(inside.any(axis=0), len(cubes) - 1 - inside[::-1].argmax(axis=0), -1)
                assert np.array_equal(system.labels(axes, k), want), (shift, half, k)


def _nodewise_labels(system, nodes, k):
    """The labels node by node: each node's floor index per axis, +-1,
    tested against the float vertex, the later candidate winning."""
    out = np.full(len(nodes), -1)
    first, shape = (np.asarray(v) for v in system.blocks[k])
    if not np.all(shape):
        return out
    shift = np.asarray(system.shift)
    side = 2.0 ** (-k)
    last = first + shape - 1
    floor = np.floor((nodes - shift) / side)
    offset = np.full(nodes.shape, -1)
    for step in (-1.0, 0.0, 1.0):
        m = floor + step
        vertex = shift + side * m
        hit = (nodes >= vertex) & (nodes < vertex + side) & (m >= first) & (m <= last)
        offset = np.where(hit, m.astype(int) - first, offset)
    ok = np.all(offset >= 0, axis=1)
    out[ok] = np.ravel_multi_index(tuple(offset[ok].T), tuple(shape))
    return out


@pytest.mark.parametrize(
    "box, sizes",
    [
        pytest.param(((-2.0, 2.0), (-2.0, 2.0)), (12, 16, 32, 40), id="default"),
        pytest.param(((-1.1, 0.9), (-1.3, 0.7)), (12, 16, 24), id="offset"),
        pytest.param(((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), (8, 12), id="3d"),
    ],
)
def test_per_axis_labels_equal_the_nodewise_rule(box, sizes):
    n = len(box)
    for N in sizes:
        grid = make_grid(n, box, N)
        for shift in lattice_shift_sample(n, 9):
            for half in ("plus", "minus"):
                system = build_system(half, shift, box, (-1, 3))
                for k in system.generations():
                    want = _nodewise_labels(system, grid.nodes, k)
                    assert np.array_equal(system.labels(grid.axes, k), want), (N, shift, half, k)


@pytest.mark.parametrize("name", ["bump_a35", "odd_bump"])
def test_labelled_reductions_match_the_node_scan(name):
    cfg = ExperimentConfig(p=4.0)
    grid = make_grid(2, cfg.box, 32)
    sym = next(s for s in symbol_family("default", 2) if s.name == name)
    fld = SampledField(grid, sym(grid.nodes))
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    energies, tails = [], []
    for pair in systems:
        for system in pair:
            for k in system.generations():
                got = conditional_expectation(fld, k, system).values
                assert _close(got, _scan_conditional_expectation(fld, k, system))
            energies.append((dyadic_energy_sum(fld, system, cfg.p), _scan_energy_sum(fld, system, cfg.p)))
        labels = [generation_labels(grid, system) for system in pair]
        tails.append((_tail_statistic([fld], cfg, pair, labels)[0], _scan_tail(fld, cfg.p, pair)))
    for got, want in energies + tails:
        assert _close(got, want)
    assert min(max(want for _, want in energies), min(want for _, want in tails)) > 0.0


def test_energy_sum_labels_each_generation_once(monkeypatch):
    # the sum over martingale differences as `martingale_difference` forms
    # them labels each inner generation three times; one labelling per
    # generation must give the same sums bit for bit
    cfg = ExperimentConfig(p=4.0)
    grid = make_grid(2, cfg.box, 32)
    fields = [SampledField(grid, sym(grid.nodes)) for sym in symbol_family("default", 2)]
    k_max = min(finest_resolved_generation(grid), cfg.stat_k_max)
    systems = [s for pair in _lattice_systems(cfg, k_max) for s in pair]

    def by_differences(f, s):
        total = 0.0
        for k in range(s.k_min, s.k_max):
            delta = martingale_difference(f, k, s).values
            total += float(np.sum(_cube_means(np.abs(delta) ** cfg.p, s.labels(grid.axes, k), len(s.cubes[k]))))
        return total

    want = [by_differences(f, s) for s in systems for f in fields]
    calls = []
    labels = DyadicSystem.labels

    def counted(self, axes, k):
        calls.append(k)
        return labels(self, axes, k)

    monkeypatch.setattr(DyadicSystem, "labels", counted)
    for s in systems:
        for f in fields:
            calls.clear()
            assert dyadic_energy_sum(f, s, cfg.p) == want.pop(0)
            assert calls == list(s.generations())


def test_stacked_reductions_equal_one_field_reductions_bit_for_bit():
    # N = 64 resolves generation 2, whose cube means are long enough for
    # pairwise summation; each stacked row must still sum as a 1-d call
    cfg = ExperimentConfig(p=4.0, num_lattice_shifts=3)
    grid = make_grid(2, cfg.box, 64)
    fields = [SampledField(grid, sym(grid.nodes)) for sym in symbol_family("default", 2)]
    stack = np.stack([f.values for f in fields])
    systems = [s for pair in _lattice_systems(cfg, finest_resolved_generation(grid)) for s in pair]
    assert max(len(s.cubes[s.k_max - 1]) for s in systems) > 8
    for s in systems:
        want = []
        for f in fields:
            levels = [conditional_expectation(f, k, s).values for k in s.generations()]
            want.append(0.0)
            for k, coarse, fine in zip(s.generations(), levels, levels[1:]):
                means = _cube_means(np.abs(fine - coarse) ** cfg.p, s.labels(grid.axes, k), len(s.cubes[k]))
                want[-1] += float(np.sum(means))
        labels = generation_labels(grid, s)
        assert dyadic_energy_sums(stack, labels, s, cfg.p).tolist() == want
        for k, lab in zip(s.generations(), labels):
            assert np.array_equal(lab, s.labels(grid.axes, k))
            averaged = labelled_expectation(stack, lab, len(s.cubes[k]))
            for f, row in zip(fields, averaged):
                assert np.array_equal(row, conditional_expectation(f, k, s).values)


def test_labelled_reductions_keep_constant_blocks_and_zeros():
    cfg = ExperimentConfig(p=4.0)
    grid = make_grid(2, cfg.box, 32)
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    for pair in systems:
        for system in pair:
            for k in system.generations():
                # one inexact constant per cube: each block must average to
                # its constant bit for bit
                labels = system.labels(grid.axes, k)
                blocks = SampledField(grid, np.where(labels >= 0, 0.1 * labels + 1.0 / 3.0, 0.7))
                got = conditional_expectation(blocks, k, system).values
                assert np.array_equal(got, blocks.values)
                assert np.array_equal(got, _scan_conditional_expectation(blocks, k, system))
        for sym in symbol_family("default", 2):
            if sym.kind == "perhalf-constant":
                fld = SampledField(grid, sym(grid.nodes))
                assert all(dyadic_energy_sum(fld, system, cfg.p) == 0.0 for system in pair)
                labels = [generation_labels(grid, system) for system in pair]
                assert _tail_statistic([fld], cfg, pair, labels) == [0.0]


def test_labelled_reductions_reject_an_empty_cube():
    # the grid covers only a corner of the system's box, so most cubes of
    # the resolved generation hold no node
    grid = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (0, 1))
    f = _field(_chi_unit, grid)
    with pytest.raises(ValueError, match="grid too coarse"):
        _scan_conditional_expectation(f, 1, system)
    with pytest.raises(ValueError, match="grid too coarse"):
        conditional_expectation(f, 1, system)
    with pytest.raises(ValueError, match="grid too coarse"):
        dyadic_energy_sum(f, system, 2.0)


# ---------------------------------------------------------------------------
# Haar functions


def test_haar_count_orthonormality_and_support():
    Q = Cube(0, (0, 0), (0.0, 0.0), "plus")
    basis = haar_basis(Q)
    assert len(basis) == 3
    # quadrature Gram matrix against the identity, including the scaled
    # indicator as zeroth element
    def indicator(pts):
        return Q.contains(pts).astype(float) / math.sqrt(Q.volume)

    fns = [indicator] + [h.evaluate for h in basis]
    gram = np.empty((4, 4))
    for i, fi in enumerate(fns):
        for j, fj in enumerate(fns):
            gram[i, j] = box_midpoint_mean(
                lambda p: fi(p) * fj(p), Q.box, points_per_axis=8
            ) * Q.volume
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_haar_mean_zero_and_l1_linf():
    Q = Cube(2, (1, -4), (0.0, 0.0), "minus")
    for h in haar_basis(Q):
        mean = box_midpoint_mean(h.evaluate, Q.box, points_per_axis=8)
        assert abs(mean) < 1e-14
        l1 = box_midpoint_mean(lambda p: np.abs(h.evaluate(p)), Q.box, 8) * Q.volume
        linf = h.amplitude
        assert 0.25 <= l1 * linf <= 4.0
        assert l1 * linf == pytest.approx(1.0, rel=1e-12)


def test_haar_vanishes_outside_parent():
    Q = Cube(0, (0, 0), (0.0, 0.0), "plus")
    h = haar_basis(Q)[0]
    outside = np.array([[1.5, 0.5], [-0.5, 0.5], [0.5, 1.01]])
    assert np.array_equal(h.evaluate(outside), np.zeros(3))


def test_haar_reconstruction_exact_at_child_resolution():
    # f = indicator of the left half of the unit cube
    Q = Cube(0, (0, 0), (0.0, 0.0), "plus")

    def f(pts):
        pts = np.asarray(pts)
        return (
            np.all((pts >= [0.0, 0.0]) & (pts < [0.5, 1.0]), axis=-1)
        ).astype(float)

    basis = haar_basis(Q)
    coeffs = [
        box_midpoint_mean(lambda p: f(p) * h.evaluate(p), Q.box, 8) * Q.volume
        for h in basis
    ]
    mean = box_midpoint_mean(f, Q.box, 8)
    child_centers = np.array(
        [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
    )
    recon = mean + sum(
        c * h.evaluate(child_centers) for c, h in zip(coeffs, basis)
    )
    assert np.allclose(recon, f(child_centers), atol=1e-14)


def test_haar_rejects_zero_dimensional():
    with pytest.raises(ValueError, match="no Haar"):
        haar_basis(Cube(0, (), (), "plus"))


# ---------------------------------------------------------------------------
# conditional expectations and martingale differences


def test_conditional_expectation_frozen_average():
    grid = make_grid(2, BOX2, 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 1))
    f = _field(_chi_unit, grid)
    coarse = conditional_expectation(f, -1, system)
    assert np.all(coarse.values == 0.25)


def test_conditional_expectation_linear_symbol():
    grid = make_grid(2, ((0.0, 1.0), (0.0, 1.0)), 16)
    system = build_system("plus", (0.0, 0.0), ((0.0, 1.0), (0.0, 1.0)), (0, 2))
    f = SampledField(grid, grid.nodes[:, 0])
    avg = conditional_expectation(f, 0, system)
    assert np.allclose(avg.values, 0.5, atol=1e-15)


def test_finest_resolved_generation_keeps_four_cells_per_side():
    # the generation the studies cap their lattices at, for every even N
    # on the default box: 2^-k >= 4 spacing, accepted by the averages,
    # and the next generation rejected
    box = ExperimentConfig().box
    for N in range(4, 129, 2):
        grid = make_grid(2, box, N)
        k = finest_resolved_generation(grid)
        assert k == int(math.floor(math.log2(1.0 / (4.0 * float(np.max(grid.spacing)))) + 1e-9)), N
        assert 2.0**-k >= 4.0 * float(np.max(grid.spacing)) * (1.0 - 1e-9) > 2.0 ** -(k + 1)
        _require_resolved(grid, k)
        with pytest.raises(ValueError, match="too coarse"):
            _require_resolved(grid, k + 1)


def test_conditional_expectation_rejects_coarse_grid():
    grid = make_grid(2, BOX2, 4)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 3))
    f = _field(_chi_unit, grid)
    with pytest.raises(ValueError, match="too coarse"):
        conditional_expectation(f, 3, system)


def test_martingale_difference_frozen_values_and_mean_zero():
    grid = make_grid(2, BOX2, 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 1))
    f = _field(_chi_unit, grid)
    delta = martingale_difference(f, -1, system)
    inside = _chi_unit(grid.nodes) == 1.0
    assert np.all(delta.values[inside] == 0.75)
    assert np.all(delta.values[~inside] == -0.25)
    assert abs(delta.values.mean()) < 1e-12


def test_tower_property():
    grid = make_grid(2, BOX2, 32)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 2))
    rng = np.random.default_rng(9)
    f = SampledField(grid, np.sin(3 * grid.nodes[:, 0]) + rng.normal(size=len(grid.nodes)))
    two_step = conditional_expectation(
        conditional_expectation(f, 1, system), 0, system
    )
    one_step = conditional_expectation(f, 0, system)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-10


def test_martingale_parseval_at_p2():
    # cube-averaged squared martingale differences match the Haar
    # coefficient mass, generation by generation
    grid = make_grid(2, BOX2, 64)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 2))
    f = SampledField(grid, np.sin(2.1 * grid.nodes[:, 0]) * np.cos(1.3 * grid.nodes[:, 1]))
    w = grid.weight
    for k in range(-1, 2):
        delta = martingale_difference(f, k, system).values
        lhs = 0.0
        rhs = 0.0
        for Q in system.cubes[k]:
            mask = nodes_in_cube(grid, Q)
            lhs += float(np.mean(delta[mask] ** 2))
            for h in haar_basis(Q):
                coeff = float(np.sum(f.values * h.evaluate(grid.nodes) * w))
                rhs += coeff**2 / Q.volume
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# medians


def test_median_frozen_examples():
    assert median(np.array([1.0, 1.0, 2.0, 5.0])) == 1.0
    assert median(np.array([1.0, 2.0, 3.0])) == 2.0
    assert median(np.full(7, 3.25)) == 3.25


def test_median_counting_inequalities_random():
    rng = np.random.default_rng(2)
    for _ in range(200):
        vals = rng.normal(size=rng.integers(1, 40))
        a = median(vals)
        assert a in vals
        assert np.count_nonzero(vals > a) <= vals.size / 2
        assert np.count_nonzero(vals < a) <= vals.size / 2


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=25))
@settings(max_examples=200, deadline=None)
def test_median_is_smallest_admissible_sample(values):
    vals = np.array(values, dtype=float)
    a = median(vals)
    admissible = [
        v
        for v in np.unique(vals)
        if np.count_nonzero(vals > v) <= vals.size / 2
        and np.count_nonzero(vals < v) <= vals.size / 2
    ]
    assert a == min(admissible)


def test_median_empty_error():
    with pytest.raises(ValueError, match="non-empty last axis"):
        median(np.array([]))
    with pytest.raises(ValueError, match="non-empty last axis"):
        median(np.zeros((3, 0)))


@pytest.mark.parametrize("size", [1, 2, 7, 8])
def test_median_along_the_last_axis_is_each_rows_median(size):
    rng = np.random.default_rng(size)
    rows = rng.integers(0, 4, size=(2, 5, size)).astype(float)
    got = median(rows)
    assert got.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        assert got[idx] == median(rows[idx])


# ---------------------------------------------------------------------------
# dyadic energy sums


def test_energy_sum_frozen_indicator_value():
    grid = make_grid(2, BOX2, 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 1))
    b = _field(_chi_unit, grid)
    # single cross-generation term: mean of |E_0 b - E_{-1} b|^2 = 3/16,
    # plus an exactly-zero k=0 term (b is constant on unit cubes)
    assert dyadic_energy_sum(b, system, 2.0) == pytest.approx(3.0 / 16.0, abs=1e-15)


def test_energy_sum_vanishes_for_constants():
    grid = make_grid(2, BOX2, 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 1))
    b = SampledField(grid, np.full(len(grid.nodes), 2.7))
    assert dyadic_energy_sum(b, system, 4.0) == 0.0


def test_energy_sum_sees_only_own_half():
    box = ((-2.0, 2.0), (-2.0, 2.0))
    grid = make_grid(2, box, 32)
    plus = build_system("plus", (0.0, 0.0), box, (-1, 1))
    b = SampledField(grid, np.where(grid.nodes[:, 1] > 0, 1.3, -5.0))
    # per-half constant: every admissible cube sees a constant field
    assert dyadic_energy_sum(b, plus, 2.0) == 0.0


def test_energy_sum_rejects_small_p():
    grid = make_grid(2, BOX2, 16)
    system = build_system("plus", (0.0, 0.0), BOX2, (-1, 1))
    b = _field(_chi_unit, grid)
    with pytest.raises(ValueError):
        dyadic_energy_sum(b, system, 0.5)


# ---------------------------------------------------------------------------
# separated subcubes


def test_separated_subcubes_frozen_boxes():
    Q = Cube(0, (0, 0), (0.0, 0.0), "plus")
    q1, q2 = separated_subcubes(Q, (1, 1))
    assert np.allclose(q1.box, [[0.5, 0.75], [0.5, 0.75]])
    assert np.allclose(q2.box, [[0.0, 0.25], [0.0, 0.25]])
    q1s, q2s = separated_subcubes(Q, (-1, -1))
    assert np.allclose(q1s.box, q2.box)
    assert np.allclose(q2s.box, q1.box)


@pytest.mark.parametrize("a", list(itertools.product((-1, 1), repeat=2)))
def test_separated_subcubes_gap_and_containment(a):
    Q = Cube(1, (3, -2), (0.0, 0.0), "minus")
    q1, q2 = separated_subcubes(Q, a)
    for q in (q1, q2):
        assert q.k == Q.k + 2
        assert np.all(q.vertex >= Q.vertex)
        assert np.all(q.vertex + q.side <= Q.vertex + Q.side)
    # signed coordinate gap >= quarter side in every axis
    for j in range(2):
        if a[j] == 1:
            gap = q1.box[j, 0] - q2.box[j, 1]
        else:
            gap = q2.box[j, 0] - q1.box[j, 1]
        assert gap >= Q.side / 4 - 1e-15


def test_separated_subcubes_rejects_bad_sign_vector():
    Q = Cube(0, (0, 0), (0.0, 0.0), "plus")
    with pytest.raises(ValueError):
        separated_subcubes(Q, (1, 0))
    with pytest.raises(ValueError):
        separated_subcubes(Q, (1,))


# ---------------------------------------------------------------------------
# gradient oscillation


def test_gradient_oscillation_coordinate_symbol():
    lhs, rhs, ratio = gradient_oscillation_check(
        lambda p: np.asarray(p)[..., 0], np.array([0.4, 0.7]), 3
    )
    assert lhs == pytest.approx(2.0**-4, rel=1e-9)
    assert rhs == pytest.approx(2.0**-3, rel=1e-9)
    assert ratio == pytest.approx(0.5, rel=1e-9)


def test_gradient_oscillation_ratio_is_scale_free_for_linear():
    def b(p):
        p = np.asarray(p)
        return 3.0 * p[..., 0] + 4.0 * p[..., 1]

    ratios = [
        gradient_oscillation_check(b, np.array([0.27, 0.81]), k)[2] for k in (2, 5)
    ]
    # |grad| = 5, mean gap = 7 * 2^-(k+1): the ratio is 0.7 at every scale
    assert ratios[0] == pytest.approx(0.7, rel=1e-9)
    assert ratios[1] == pytest.approx(0.7, rel=1e-9)


def test_gradient_oscillation_smooth_symbol_two_sided():
    def b(p):
        p = np.asarray(p)
        return np.sin(p[..., 0]) + np.cos(p[..., 1])

    x0 = np.array([math.pi / 4, 0.0])
    ratios = [gradient_oscillation_check(b, x0, k)[2] for k in range(4, 9)]
    assert max(ratios) / min(ratios) <= 2.0
    assert all(r > 0 for r in ratios)


def test_gradient_oscillation_minus_half_cube():
    lhs, rhs, ratio = gradient_oscillation_check(
        lambda p: np.asarray(p)[..., 1], np.array([0.3, -0.6]), 2
    )
    assert ratio == pytest.approx(0.5, rel=1e-9)


def test_gradient_oscillation_degenerate_gradient():
    with pytest.raises(ValueError, match="degenerate gradient"):
        gradient_oscillation_check(
            lambda p: np.zeros(np.asarray(p).shape[:-1]), np.array([0.5, 0.5]), 3
        )
