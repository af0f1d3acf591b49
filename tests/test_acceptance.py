"""Acceptance gate: one test per release criterion, one verdict line each.

Every criterion pins its tolerances and runtime budget here; nothing is
read from the environment.  Run with `pytest -v tests/test_acceptance.py`
(or `-s` to see the verdict lines on passing runs too).
"""

import math
import time
from pathlib import Path

import numpy as np

from nrlab.besov import BesovParams, besov_heat_norm, default_time_grid
from nrlab.cli import main as cli_main
from nrlab.discretize import (
    Symbol,
    apply_semigroup,
    assemble_commutator,
    make_grid,
)
from nrlab.dyadic import (
    SampledField,
    build_system,
    conditional_expectation,
    gradient_oscillation_check,
    haar_basis,
    martingale_difference,
    nodes_in_cube,
)
from nrlab.harness import (
    ExperimentConfig,
    divergence_study,
    lower_bound_audit,
    ratio_study,
    sign_witness_audit,
    symbol_family,
    upper_bound_audit,
    verify_suite,
)
from nrlab.kernels import KernelParams, heat_kernel_neumann, riesz_kernel
from nrlab.spectra import (
    schatten_norm,
    singular_values,
    weak_schatten_norm,
)

BOX = ((-2.0, 2.0), (-2.0, 2.0))


def _verdict(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def _cross_half_pairs(rng, count):
    x = rng.normal(size=(count, 2)) * 1.5
    x[:, 1] = np.abs(x[:, 1]) + 1e-9
    y = rng.normal(size=(count, 2)) * 1.5
    y[:, 1] = -np.abs(y[:, 1]) - 1e-9
    return x, y


def test_criterion_01_kernel_gating():
    rng = np.random.default_rng(101)
    x, y = _cross_half_pairs(rng, 10_000)
    t0 = time.perf_counter()
    kr = riesz_kernel(KernelParams(2, 1), x, y)
    kr2 = riesz_kernel(KernelParams(2, 2), x, y)
    kh = heat_kernel_neumann(0.3, x, y)
    elapsed = time.perf_counter() - t0
    exact = (
        not np.any(kr) and not np.any(kr2) and not np.any(kh)
        and kr.shape == (10_000,)
    )
    _verdict(
        1,
        "kernel gating on 10^4 cross-half pairs",
        exact and elapsed < 1.0,
        f"all exactly zero={exact}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_heat_kernel_identities():
    t0 = time.perf_counter()
    # conservation against a fresh midpoint quadrature, box radius 8 sqrt(t)
    cons_err = 0.0
    for t in (0.1, 0.55, 1.0):
        r = 8.0 * math.sqrt(t)
        for x in (np.array([0.3, 0.2]), np.array([-0.7, 1.1])):
            m = 160
            ax0 = x[0] - r + (np.arange(m) + 0.5) * (2 * r / m)
            lo1 = max(0.0, x[1] - r)
            ax1 = lo1 + (np.arange(m) + 0.5) * ((x[1] + r - lo1) / m)
            mesh = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), axis=-1).reshape(-1, 2)
            w = (2 * r / m) * ((x[1] + r - lo1) / m)
            mass = float(np.sum(heat_kernel_neumann(t, x, mesh))) * w
            cons_err = max(cons_err, abs(mass - 1.0))

    # semigroup composition and the even-extension route, each pair on a
    # grid sized to its diffusion length so box truncation stays below
    # tolerance (radius 8 sqrt(t) leaves an erfc tail ~ 1e-7)
    bump = symbol_family("default", 2)[0]
    comp_err = 0.0
    ext_err = 0.0
    for t, s in ((0.1, 0.1), (0.4, 0.6), (0.25, 0.1)):
        r = 8.0 * math.sqrt(t + s)
        grid = make_grid(2, ((-r, r), (-r, r)), 64)
        fld = SampledField(grid, bump(grid.nodes))
        interior = np.all(np.abs(grid.nodes) < 1.0, axis=1)
        mirror = grid.mirror_index()
        twice = apply_semigroup(apply_semigroup(fld, t), s).values
        once = apply_semigroup(fld, t + s).values
        comp_err = max(comp_err, float(np.max(np.abs(twice - once))))
        plus_vals = np.where(grid.mask_plus, fld.values, 0.0)
        even_vals = plus_vals + plus_vals[mirror]
        route_n = apply_semigroup(SampledField(grid, plus_vals), t).values
        route_e = apply_semigroup(SampledField(grid, even_vals), t, kernel="full").values
        ext_err = max(
            ext_err, float(np.max(np.abs(route_n - route_e)[grid.mask_plus & interior]))
        )
    elapsed = time.perf_counter() - t0
    ok = cons_err <= 1e-6 and comp_err <= 1e-6 and ext_err <= 1e-6 and elapsed < 30.0
    _verdict(
        2,
        "heat kernel identities (conservation/composition/extension)",
        ok,
        f"cons={cons_err:.2e}, comp={comp_err:.2e}, ext={ext_err:.2e}, {elapsed:.1f} s",
    )


def test_criterion_03_spectral_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    weak_ok = True
    for _ in range(100):
        m = rng.normal(size=rng.integers(2, 65, size=2))
        spec = singular_values(m)
        worst = max(worst, abs(schatten_norm(spec, 2.0) - float(np.linalg.norm(m))))
        for p in (2.5, 4.0, 10.0):
            weak_ok &= weak_schatten_norm(spec, p) <= schatten_norm(spec, p) + 1e-12
    diag = singular_values(np.diag([3.0, -4.0]))
    diag_ok = (
        np.array_equal(diag.values, [4.0, 3.0])
        and schatten_norm(diag, 1.0) == 7.0
        and schatten_norm(diag, 2.0) == 5.0
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and weak_ok and diag_ok and elapsed < 10.0
    _verdict(
        3,
        "spectral oracles (S^2=Frobenius, diag exact, weak<=strong)",
        ok,
        f"S2 err={worst:.2e}, diag exact={diag_ok}, {elapsed:.1f} s",
    )


def test_criterion_04_zero_commutator_for_perhalf_constants():
    t0 = time.perf_counter()
    controls = [s for s in symbol_family("default", 2) if s.kind == "perhalf-constant"]
    assert len(controls) == 2
    all_zero = True
    for N in (16, 32, 64):
        grid = make_grid(2, BOX, N)
        for sym in controls:
            op = assemble_commutator(sym, 1, grid)
            all_zero &= not np.any(op.matrix)
            all_zero &= schatten_norm(singular_values(op), 4.0) == 0.0
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        "per-half-constant symbols give the exact zero matrix",
        all_zero and elapsed < 10.0,
        f"N in (16,32,64), exact zeros={all_zero}, {elapsed:.1f} s",
    )


def test_criterion_05_ratio_study_both_directions():
    details = []
    ok = True
    for ell in (1, 2):
        cfg = ExperimentConfig(p=4.0, ell=ell, box=BOX, grid_sizes=(32, 64))
        t0 = time.perf_counter()
        rep = ratio_study(cfg)
        elapsed = time.perf_counter() - t0
        s = rep.summary
        ok &= s["spread"] <= 20.0 and s["max_drift"] < 0.15 and elapsed <= 180.0
        details.append(
            f"ell={ell}: spread={s['spread']:.2f}, drift={s['max_drift']:.3f}, {elapsed:.0f} s"
        )
    _verdict(5, "Schatten/Besov ratio study at p=4, N=32->64", ok, "; ".join(details))


def test_criterion_06_endpoint_divergence():
    cfg = ExperimentConfig(p=2.0, family="divergence", box=BOX, grid_sizes=(16, 32, 64))
    t0 = time.perf_counter()
    rep = divergence_study(cfg)
    elapsed = time.perf_counter() - t0
    documented = all(
        "endpoint" in r.note and math.isnan(r.besov)
        for r in rep.rows
        if r.experiment == "divergence"
    )
    ok = (
        rep.summary["growth_ok"]
        and rep.summary["controls_zero"]
        and documented
        and elapsed <= 60.0
    )
    _verdict(
        6,
        "endpoint p=n divergence (growth >= 1.5, controls exact zero)",
        ok,
        f"growth_ok={rep.summary['growth_ok']}, controls_zero={rep.summary['controls_zero']}, "
        f"besov documented out of range={documented}, {elapsed:.0f} s",
    )


def test_criterion_07_lower_bound_audit():
    cfg = ExperimentConfig(p=4.0, box=BOX, grid_sizes=(32,), num_lattice_shifts=9)
    t0 = time.perf_counter()
    rep = lower_bound_audit(cfg)
    elapsed = time.perf_counter() - t0
    s = rep.summary
    band_ok = s["energy_C_spread"] <= s["stability_band"] and s["nwo_C_spread"] <= s["stability_band"]
    ok = rep.passed and band_ok and elapsed <= 60.0
    _verdict(
        7,
        "lower-bound audit (energy + NWO vs Schatten, C stable to +-25%)",
        ok,
        f"energy spread={s['energy_C_spread']:.3f}, nwo spread={s['nwo_C_spread']:.3f}, "
        f"band={s['stability_band']:.3f}, {elapsed:.0f} s",
    )


def test_criterion_08_upper_bound_audit():
    cfg = ExperimentConfig(p=4.0, box=BOX, grid_sizes=(32,), russo_slack=1.1)
    t0 = time.perf_counter()
    rep = upper_bound_audit(cfg)
    elapsed = time.perf_counter() - t0
    slacks = [r.ratio for r in rep.rows if not math.isnan(r.ratio)]
    ok = rep.passed and max(slacks) <= 1.1 and elapsed <= 60.0
    _verdict(
        8,
        "upper-bound audit (weak Schatten <= factorization bound x 1.1)",
        ok,
        f"max slack={max(slacks):.3f}, {elapsed:.0f} s",
    )


def test_criterion_09_dyadic_haar_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    k_lo, k_hi = -1, 4  # six generations
    ok = True
    for half, sgn in (("plus", 1.0), ("minus", -1.0)):
        system = build_system(half, np.zeros(2), BOX, (k_lo, k_hi))
        assert len(system.generations()) == 6
        # (I) each generation partitions the covered half-box
        pts = rng.uniform(-1.95, 1.95, size=(400, 2))
        pts[:, 1] = sgn * (np.abs(pts[:, 1]) + 0.01)
        for k in system.generations():
            hits = np.zeros(len(pts), dtype=int)
            for Q in system.cubes[k]:
                inside = np.all((pts >= Q.box[:, 0]) & (pts < Q.box[:, 1]), axis=1)
                hits += inside
            ok &= np.all(hits == 1)
        # (II)+(III) every finer cube nests in exactly one coarser cube
        for k in range(k_lo + 1, k_hi + 1):
            sample = rng.choice(len(system.cubes[k]), size=min(60, len(system.cubes[k])), replace=False)
            for i in sample:
                Q = system.cubes[k][i]
                parents = [
                    P
                    for P in system.cubes[k - 1]
                    if np.all(Q.box[:, 0] >= P.box[:, 0]) and np.all(Q.box[:, 1] <= P.box[:, 1])
                ]
                ok &= len(parents) == 1 and system.parent(Q) == parents[0]
        # (IV) children partition the parent exactly
        for k in range(k_lo, k_hi):
            sample = rng.choice(len(system.cubes[k]), size=min(40, len(system.cubes[k])), replace=False)
            for i in sample:
                Q = system.cubes[k][i]
                kids = system.children(Q)
                ok &= len(kids) == 4
                ok &= abs(sum(c.volume for c in kids) - Q.volume) < 1e-15 * Q.volume
                ok &= all(system.parent(c) == Q for c in kids)

    # Haar Gram identity on sampled cubes
    system = build_system("plus", np.zeros(2), BOX, (k_lo, k_hi))
    gram_err = 0.0
    pool = [Q for k in range(k_lo, 3) for Q in system.cubes[k]]
    for i in rng.choice(len(pool), size=20, replace=False):
        Q = pool[i]
        axes = [lo + (np.arange(8) + 0.5) * (hi - lo) / 8 for lo, hi in Q.box]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        w = (Q.side / 8) ** 2
        mat = np.stack([h.evaluate(nodes) for h in haar_basis(Q)] + [np.full(64, Q.volume**-0.5)])
        gram_err = max(gram_err, float(np.max(np.abs(mat @ mat.T * w - np.eye(4)))))
    ok &= gram_err <= 1e-12

    # exact reconstruction of a generation-resolved integer field
    grid = make_grid(2, BOX, 64)
    labels = np.zeros(len(grid.nodes))
    for Q in system.cubes[1]:
        mask = nodes_in_cube(grid, Q)
        labels[mask] = float((7 * Q.m[0] + 13 * Q.m[1]) % 5 - 2)
    fld = SampledField(grid, labels)
    covered = np.zeros(len(grid.nodes), dtype=bool)
    for Q in system.cubes[1]:
        covered |= nodes_in_cube(grid, Q)
    recon = conditional_expectation(fld, k_lo, system).values.copy()
    for k in range(k_lo, 1):
        recon += martingale_difference(fld, k, system).values
    recon_exact = np.array_equal(recon[covered], labels[covered])
    ok &= recon_exact

    # tower property on a smooth field
    bump = symbol_family("default", 2)[0]
    sfld = SampledField(grid, bump(grid.nodes))
    direct = conditional_expectation(sfld, 0, system)
    nested = conditional_expectation(conditional_expectation(sfld, 1, system), 0, system)
    mask0 = np.zeros(len(grid.nodes), dtype=bool)
    for Q in system.cubes[0]:
        mask0 |= nodes_in_cube(grid, Q)
    tower_err = float(np.max(np.abs(nested.values[mask0] - direct.values[mask0])))
    ok &= tower_err <= 1e-10

    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        "dyadic/Haar suite over 6 generations",
        ok and elapsed < 30.0,
        f"gram={gram_err:.2e}, reconstruction exact={recon_exact}, tower={tower_err:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_10_sign_witness_audit():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(box=BOX, witness_A=16.0)
    sign1, mag1, margin1 = sign_witness_audit(cfg, ell=1, count=50)
    sign2, mag2, margin2 = sign_witness_audit(cfg, ell=2, count=50)
    elapsed = time.perf_counter() - t0
    # the certified magnitude bound is provable for the tangential
    # direction; the normal direction is audited for constant sign, its
    # magnitude margin is reported
    ok = sign1 == 0 and mag1 == 0 and margin1 >= 1.0 and sign2 == 0 and elapsed < 30.0
    _verdict(
        10,
        "sign witness audit (A=16, 50 cubes per half)",
        ok,
        f"ell=1: sign/magnitude violations {sign1}/{mag1}, margin {margin1:.2f}; "
        f"ell=2: sign violations {sign2}, magnitude margin {margin2:.2e} (reported), "
        f"{elapsed:.1f} s",
    )


def test_criterion_11_gradient_oscillation_window():
    t0 = time.perf_counter()
    symbols = [
        (lambda x: np.asarray(x)[..., 0], np.array([0.31, 0.27])),
        (lambda x: 0.6 * np.asarray(x)[..., 0] + 0.8 * np.asarray(x)[..., 1], np.array([0.11, 0.53])),
        (
            lambda x: np.sin(np.asarray(x)[..., 0]) + np.cos(np.asarray(x)[..., 1]),
            np.array([math.pi / 4, 0.3]),
        ),
    ]
    ratios = []
    grads_ok = True
    from nrlab.dyadic import numeric_gradient

    for func, x0 in symbols:
        grads_ok &= float(np.linalg.norm(numeric_gradient(func, x0))) >= 0.5
        for k in range(4, 9):
            ratios.append(gradient_oscillation_check(func, x0, k)[2])
    band = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    ok = grads_ok and band <= 4.0 and elapsed < 30.0
    _verdict(
        11,
        "gradient-scale oscillation window, k=4..8",
        ok,
        f"ratio band C/c={band:.2f} over [{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.1f} s",
    )


def test_criterion_12_deterministic_outputs(tmp_path):
    t0 = time.perf_counter()
    argsets = (
        ["ratio-study", "--grid", "16,32", "--p", "4.0"],
        ["verify"],
    )
    identical = True
    for tag, args in zip(("r", "v"), argsets):
        outs = []
        for run in ("1", "2"):
            out = tmp_path / f"{tag}{run}"
            cli_main(args + ["--out", str(out)])
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        identical &= set(outs[0]) == set(outs[1])
        identical &= all(outs[0][name] == outs[1][name] for name in outs[0])
        identical &= any(name.endswith(".csv") for name in outs[0])
    elapsed = time.perf_counter() - t0
    _verdict(
        12,
        "byte-identical CSV outputs across repeated runs",
        identical,
        f"ratio-study and verify reruns compared file-by-file, {elapsed:.1f} s",
    )
