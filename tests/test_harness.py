"""Experiment harness: config round-trips, symbol families, study drivers
at smoke scale, the verification suite, CSV determinism, and the CLI."""

import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from nrlab.cli import main as cli_main
from nrlab.discretize import Symbol, assemble_commutator, assemble_riesz, ball_microgrid, make_grid, read_matrix
from nrlab.dyadic import Cube, SampledField, box_midpoint_mean, build_system, finest_resolved_generation, median
from nrlab.harness import (
    ExperimentConfig,
    ReportRow,
    _double_integral_statistic,
    _energy_statistic,
    _lattice_systems,
    _mollifier,
    _nwo_statistic,
    _oscillation_partials,
    _tail_statistic,
    divergence_study,
    lattice_shift_sample,
    lower_bound_audit,
    ratio_study,
    sign_witness_audit,
    symbol_family,
    upper_bound_audit,
    verify_suite,
    write_invariants_csv,
    write_rows_csv,
    write_spectrum_csv,
)
from nrlab.kernels import KernelParams, riesz_kernel, sign_witness
from nrlab.kvconfig import write_kv_file
from nrlab.spectra import mixed_norm, russo_bound

SMOKE = dict(p=4.0, grid_sizes=(8, 16), t_per_decade=6, shift_per_decade=6, shift_angles=8)


# ---------------------------------------------------------------------------
# config


def test_config_file_roundtrip_identity(tmp_path):
    cfg = ExperimentConfig(p=4.0, ell=2, grid_sizes=(16, 32), seed=7)
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    again = ExperimentConfig.from_file(path)
    assert again == cfg
    path2 = tmp_path / "run2.cfg"
    again.to_file(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"pp": 4.0})


def test_config_rejects_bad_ladder():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(grid_sizes=(32, 32))


def test_config_rejects_bad_box():
    with pytest.raises(ValueError, match="lo < hi"):
        ExperimentConfig(box=((1.0, -1.0), (-2.0, 2.0)))


def test_config_rejects_ell_out_of_range():
    with pytest.raises(ValueError, match="ell"):
        ExperimentConfig(ell=3)


def test_config_rejects_nonpositive_lattice_shift_count():
    with pytest.raises(ValueError, match="num_lattice_shifts"):
        ExperimentConfig(num_lattice_shifts=0)


def test_config_rejects_k_min_above_stat_k_max():
    with pytest.raises(ValueError, match="k_min"):
        ExperimentConfig(k_min=3, stat_k_max=2)


def test_config_rejects_nonpositive_witness_offset():
    with pytest.raises(ValueError, match="witness_A"):
        ExperimentConfig(witness_A=0.0)


@pytest.mark.parametrize("p", [-1.0, 0.0, math.nan, math.inf])
def test_config_rejects_bad_p(p):
    with pytest.raises(ValueError, match="p must be finite and > 0"):
        ExperimentConfig(p=p)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"t_min": 5.0, "t_max": 1.0}, "t_min must be < t_max"),
        ({"t_min": 0.0}, "t_min must be finite and > 0"),
        ({"t_max": math.inf}, "t_max must be finite and > 0"),
        ({"t_per_decade": 0}, "t_per_decade must be >= 1"),
        ({"shift_per_decade": 0}, "shift_per_decade must be >= 1"),
        ({"shift_angles": 0}, "shift_angles must be >= 1"),
        ({"grid_sizes": (31,)}, "grid_sizes entry 31 .*interface"),
        ({"grid_sizes": (2, 16)}, "grid_sizes entry 2 .*at least 4"),
        ({"grid_sizes": ()}, "grid_sizes must name"),
        ({"audit_C_energy": -1.0}, "audit_C_energy must be finite and > 0"),
        ({"audit_C_nwo": math.nan}, "audit_C_nwo must be finite and > 0"),
        ({"audit_C_tail": 0.0}, "audit_C_tail must be finite and > 0"),
        ({"audit_C_double": math.inf}, "audit_C_double must be finite and > 0"),
        ({"ratio_spread_max": math.nan}, "ratio_spread_max must be finite and > 0"),
        ({"ratio_drift_max": -0.1}, "ratio_drift_max must be finite and > 0"),
        ({"divergence_growth_min": math.nan}, "divergence_growth_min must be finite and > 0"),
        ({"russo_slack": 0.0}, "russo_slack must be finite and > 0"),
        ({"family": "nosuch"}, r"family must be one of \['default', 'divergence'\], got 'nosuch'"),
    ],
    ids=[
        "t_min_not_below_t_max",
        "t_min",
        "t_max",
        "t_per_decade",
        "shift_per_decade",
        "shift_angles",
        "grid_sizes_odd",
        "grid_sizes_small",
        "grid_sizes_empty",
        "audit_C_energy",
        "audit_C_nwo",
        "audit_C_tail",
        "audit_C_double",
        "ratio_spread_max",
        "ratio_drift_max",
        "divergence_growth_min",
        "russo_slack",
        "family",
    ],
)
def test_config_rejects_bad_field(overrides, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**overrides)


def test_config_and_make_grid_share_the_grid_check():
    for N in (31, 2):
        with pytest.raises(ValueError) as from_grid:
            make_grid(2, ExperimentConfig().box, N)
        with pytest.raises(ValueError) as from_config:
            ExperimentConfig(grid_sizes=(N,))
        assert str(from_grid.value) in str(from_config.value)


def test_config_single_grid_size_roundtrips(tmp_path):
    cfg = ExperimentConfig(grid_sizes=(32,))
    cfg.to_file(tmp_path / "run.cfg")
    assert ExperimentConfig.from_file(tmp_path / "run.cfg") == cfg


def test_config_updated_returns_modified_copy():
    cfg = ExperimentConfig()
    other = cfg.updated(p=6.0)
    assert other.p == 6.0 and cfg.p == 4.0 and other.box == cfg.box


@pytest.mark.parametrize(
    "overrides",
    [
        {"grid_sizes": (32.7, 64)},
        {"grid_sizes": (True, 64)},
        {"n": 2.0},
        {"ell": 1.0},
        {"t_per_decade": 16.5},
        {"shift_per_decade": True},
        {"shift_angles": 2.5},
        {"num_lattice_shifts": 2.5},
        {"k_min": -1.5},
        {"stat_k_max": 1.5},
        {"seed": 0.5},
    ],
    ids=lambda overrides: next(iter(overrides)) + "=" + repr(next(iter(overrides.values()))),
)
def test_config_rejects_non_integer_integer_fields(tmp_path, overrides):
    # built directly and loaded from a config file line: nothing is truncated
    name = next(iter(overrides))
    with pytest.raises(ValueError, match=f"^{name}.* must be an int"):
        ExperimentConfig(**overrides)
    path = tmp_path / "run.cfg"
    write_kv_file(path, overrides)
    with pytest.raises(ValueError, match=f"^{name}.* must be an int"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"p": True}, "p must be a number, got True"),
        ({"witness_A": True}, "witness_A must be a number, got True"),
        ({"t_max": "ten"}, "t_max must be a number, got 'ten'"),
        ({"box": ((True, 2.0), (-2.0, 2.0))}, "box entry must be a number, got True"),
        ({"box": (("a", 2.0), (-2.0, 2.0))}, "box entry must be a number, got 'a'"),
        ({"box": ((-2.0, 2.0), (0.25, 4.25))}, r"box must straddle x_n = 0 on its last axis, got \(0.25, 4.25\)"),
        ({"box": ((-2.0, 2.0), (-4.0, 0.0))}, r"box must straddle x_n = 0 on its last axis, got \(-4.0, 0.0\)"),
    ],
    ids=["p_bool", "witness_A_bool", "t_max_string", "box_bool", "box_string", "box_above", "box_below"],
)
def test_config_rejects_non_numbers_and_one_sided_boxes(tmp_path, overrides, match):
    # built directly and loaded from a config file line, where a box is
    # one flat lo/hi list
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**overrides)
    path = tmp_path / "run.cfg"
    write_kv_file(path, {k: [v for pair in val for v in pair] if k == "box" else val for k, val in overrides.items()})
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_file(path)
    # ints stay accepted in float fields and in the box
    cfg = ExperimentConfig(p=4, box=((-2, 2), (-1, 3)), grid_sizes=(8,))
    assert cfg.p == 4 and cfg.box == ((-2.0, 2.0), (-1.0, 3.0))


def test_report_row_rejects_infinite_norms():
    with pytest.raises(ValueError, match="finite"):
        ReportRow("x", "s", 8, math.inf, 1.0, 1.0)


# ---------------------------------------------------------------------------
# shifts and symbol families


def test_lattice_shift_sample_deterministic():
    a = lattice_shift_sample(2, 9)
    b = lattice_shift_sample(2, 9)
    assert a.shape == (9, 2)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) < 1.0)
    assert np.all(a[0] == 0.0)  # the unshifted lattice is always in the sample


def test_symbol_family_default_composition():
    family = symbol_family("default", 2)
    kinds = [s.kind for s in family]
    assert kinds.count("perhalf-constant") == 2
    assert len(family) - kinds.count("perhalf-constant") == 5
    assert len({s.name for s in family}) == len(family)


def test_symbol_family_errors():
    with pytest.raises(ValueError, match="unknown symbol family"):
        symbol_family("nope", 2)
    with pytest.raises(ValueError, match="two-dimensional"):
        symbol_family("default", 3)


def test_symbols_vectorized_and_compactly_supported():
    pts = np.array([[0.0, 0.5], [50.0, 50.0], [-50.0, 1.0]])
    for sym in symbol_family("default", 2):
        vals = sym(pts)
        assert vals.shape == (3,)
        if sym.kind != "perhalf-constant":
            assert vals[1] == 0.0 and vals[2] == 0.0  # supported near the origin


# ---------------------------------------------------------------------------
# study drivers at smoke scale


def test_ratio_study_rejects_endpoint_p():
    with pytest.raises(ValueError):
        ratio_study(ExperimentConfig(p=2.0))


def test_divergence_study_requires_p_equal_n():
    with pytest.raises(ValueError, match="p = n"):
        divergence_study(ExperimentConfig(p=4.0))


def test_lower_audit_requires_p_above_n():
    with pytest.raises(ValueError, match="p > n"):
        lower_bound_audit(ExperimentConfig(p=2.0))


def test_upper_audit_requires_p_above_two():
    with pytest.raises(ValueError, match="p > max"):
        upper_bound_audit(ExperimentConfig(p=2.0))


def test_ratio_study_smoke_rows_and_spectra():
    cfg = ExperimentConfig(**SMOKE)
    rep = ratio_study(cfg)
    family = symbol_family("default", 2)
    assert len(rep.rows) == 2 * len(family)
    top = cfg.grid_sizes[-1]
    assert set(rep.spectra) == {f"ratio_{s.name}_N{top}" for s in family}
    for row in rep.rows:
        if row.note:
            # controls and under-resolved symbols carry no ratio
            assert math.isnan(row.ratio)
        else:
            assert row.ratio > 0.0 and math.isfinite(row.ratio)
            assert row.aux["weak_schatten"] <= row.schatten + 1e-12
    for key in ("min_ratio", "max_ratio", "spread", "max_drift"):
        assert math.isfinite(rep.summary[key])


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_studies_build_symbol_independent_operators_once_per_grid(monkeypatch):
    from nrlab import harness

    names = ("assemble_riesz", "besov_heat_norm", "besov_neumann_norm", "build_system")
    calls = _count_calls(monkeypatch, harness, names)
    ratio_study(ExperimentConfig(**SMOKE))
    assert calls == {"assemble_riesz": 2, "besov_heat_norm": 2, "besov_neumann_norm": 2, "build_system": 0}

    calls.update(dict.fromkeys(calls, 0))
    divergence_study(ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16), num_lattice_shifts=2))
    assert calls == {"assemble_riesz": 2, "besov_heat_norm": 0, "besov_neumann_norm": 0, "build_system": 2 * 2}

    calls.update(dict.fromkeys(calls, 0))
    audit = dict(audit_C_energy=1e9, audit_C_nwo=1e9, audit_C_tail=1e9, audit_C_double=1e9)
    lower_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(16,), num_lattice_shifts=3, **audit), N=16)
    assert calls == {"assemble_riesz": 1, "besov_heat_norm": 0, "besov_neumann_norm": 0, "build_system": 2 * 3}


@pytest.mark.parametrize(
    "study, cfg",
    [
        (ratio_study, ExperimentConfig(**SMOKE)),
        (divergence_study, ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16), num_lattice_shifts=2)),
    ],
)
def test_studies_evaluate_symbols_through_their_call(monkeypatch, study, cfg):
    # every evaluation of a family symbol goes through Symbol.__call__,
    # where a layer trace counts it; none unwraps the symbol's func
    from nrlab import harness

    evaluated, called = {}, {}

    def counted(sym):
        def func(x):
            evaluated[sym.name] += 1
            return sym.func(x)

        return Symbol(sym.name, func, sym.kind)

    family = [counted(sym) for sym in symbol_family(cfg.family, cfg.n)]
    members = {sym.func: sym.name for sym in family}
    evaluated.update(dict.fromkeys(members.values(), 0))
    called.update(evaluated)
    original = Symbol.__call__

    def call(self, x):
        if self.func in members:
            called[members[self.func]] += 1
        return original(self, x)

    monkeypatch.setattr(Symbol, "__call__", call)
    monkeypatch.setattr(harness, "symbol_family", lambda name, n: family)
    study(cfg)
    assert all(count > 0 for count in evaluated.values())
    assert called == evaluated


def test_studies_free_each_grids_operators_before_the_next_assembly(monkeypatch):
    # a study's memory peaks while it assembles a grid's Riesz operator,
    # so no operator of an earlier grid may be alive then
    from nrlab import harness

    made = []

    def tracked(assemble):
        def wrapper(*args):
            op = assemble(*args)
            made.append(weakref.ref(op))
            return op

        return wrapper

    def riesz(ell, grid):
        assert all(ref() is None for ref in made)
        return tracked(assemble_riesz)(ell, grid)

    monkeypatch.setattr(harness, "assemble_riesz", riesz)
    monkeypatch.setattr(harness, "assemble_commutator", tracked(assemble_commutator))
    ratio_study(ExperimentConfig(**SMOKE))
    divergence_study(ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16), num_lattice_shifts=2))
    assert len(made) == 2 * (1 + 7) + 2 * (1 + 5)


def test_ratio_study_without_resolved_symbol_names_cause(monkeypatch):
    from nrlab import harness

    controls = lambda n: [s for s in symbol_family("default", n) if s.kind == "perhalf-constant"]
    monkeypatch.setitem(harness._FAMILIES, "controls", controls)
    with pytest.raises(ValueError, match="no non-control symbol .* resolved at the top grid size N=16"):
        ratio_study(ExperimentConfig(**SMOKE, family="controls"))


def test_divergence_study_smoke_controls_exact_zero():
    cfg = ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16))
    rep = divergence_study(cfg)
    assert rep.summary["controls_zero"] is True
    for row in rep.rows:
        if row.experiment == "divergence":
            assert "endpoint" in row.note  # alpha = 1 documented, not computed
            assert math.isnan(row.besov)
            if row.symbol in ("halfconst", "uniform"):
                assert row.schatten == 0.0
        else:
            assert row.experiment == "divergence-dyadic"
            assert "oscillation_lN" in row.aux and "top_generation" in row.aux


def test_divergence_oscillation_statistic_grows():
    cfg = ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16))
    rep = divergence_study(cfg)
    by_symbol = {}
    for row in rep.rows:
        if row.experiment == "divergence-dyadic":
            by_symbol.setdefault(row.symbol, []).append(
                (row.aux["top_generation"], row.aux["oscillation_lN"])
            )
    for name, pairs in by_symbol.items():
        stats = [v for _, v in sorted(pairs)]
        if name in ("halfconst", "uniform"):
            assert all(v == 0.0 for v in stats)
        else:
            # cumulative over generations, so nondecreasing; strict growth
            # at the top witnesses unbounded dyadic oscillation content
            assert all(b >= a for a, b in zip(stats, stats[1:]))
            assert stats[-1] > stats[0] > 0.0


# ---------------------------------------------------------------------------
# dyadic statistics against per-cube references


def _cubes_by_generation(cfg, shift, k_max):
    for half in ("plus", "minus"):
        system = build_system(half, shift, cfg.box, (cfg.k_min, k_max))
        for k in system.generations():
            yield k, system.cubes[k]


def _children(Q, levels):
    for s in itertools.product(range(2**levels), repeat=Q.n):
        yield Cube(Q.k + levels, tuple(2**levels * m + si for m, si in zip(Q.m, s)), Q.shift, Q.half)


def _oscillation_per_cube(sym, cfg, ppa=6):
    """One box_midpoint_mean call per grandchild, cube by cube."""
    gens = list(range(cfg.k_min, cfg.stat_k_max + 1))
    per_shift = []
    for shift in lattice_shift_sample(cfg.n, cfg.num_lattice_shifts):
        totals = dict.fromkeys(gens, 0.0)
        for k in gens:
            for half in ("plus", "minus"):
                system = build_system(half, shift, cfg.box, (cfg.k_min, cfg.stat_k_max))
                for Q in system.cubes[k]:
                    means = np.array([box_midpoint_mean(sym, g.box, ppa) for g in _children(Q, 2)])
                    osc = float(np.mean(np.abs(means[:, None] - means[None, :])))
                    totals[k] += osc**cfg.n
        per_shift.append([totals[k] for k in gens])
    per_shift = np.asarray(per_shift)
    return {
        k: float(np.max(np.sum(per_shift[:, : i + 1], axis=1)) ** (1.0 / cfg.n)) for i, k in enumerate(gens)
    }


def _nwo_per_cube(sym, cfg, k_max, child_ppa=6, ball_ppa=8):
    """One witness ball and one kernel call per child, cube by cube."""
    params = KernelParams(cfg.n, cfg.ell)
    best = 0.0
    for shift in lattice_shift_sample(cfg.n, cfg.num_lattice_shifts):
        total = 0.0
        for _, cubes in _cubes_by_generation(cfg, shift, k_max):
            for Q in cubes:
                y, wy = ball_microgrid(sign_witness(Q, params, cfg.witness_A)[1], ball_ppa)
                by = sym(y)
                alpha = median(by)
                inner = [0.0, 0.0]
                for child in _children(Q, 1):
                    axes = [lo + (np.arange(child_ppa) + 0.5) * (hi - lo) / child_ppa for lo, hi in child.box]
                    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, Q.n)
                    wx = (child.side / child_ppa) ** Q.n
                    bx = sym(x)
                    integrand = (bx[:, None] - by[None, :]) * riesz_kernel(
                        params, x[:, None, :], y[None, :, :], singular="zero"
                    )
                    for s, (e, f) in enumerate(((bx <= alpha, by >= alpha), (bx > alpha, by <= alpha))):
                        inner[s] += abs(float(np.sum(integrand[np.ix_(e, f)])) * wx * wy) / Q.volume
                total += inner[0] ** cfg.p + inner[1] ** cfg.p
        best = max(best, total)
    return best


def test_oscillation_statistic_matches_per_cube_means_bit_for_bit():
    cfg = ExperimentConfig(p=2.0, ell=2, family="divergence", num_lattice_shifts=2, stat_k_max=1)
    systems = _lattice_systems(cfg, cfg.stat_k_max)
    for sym in symbol_family("divergence", 2):
        assert _oscillation_partials([sym], cfg, systems)[0] == _oscillation_per_cube(sym, cfg)


@pytest.mark.parametrize(
    "family, name, ell",
    [
        pytest.param("default", "bump_a35", 1, id="bump_a35"),
        pytest.param("default", "odd_bump", 1, id="odd_bump"),
        pytest.param("default", "bump_a35", 2, id="bump_a35-ell2"),
        pytest.param("default", "odd_bump", 2, id="odd_bump-ell2"),
        pytest.param("divergence", "multiscale", 1, id="divergence-multiscale"),
    ],
)
def test_nwo_statistic_matches_per_cube_sums(family, name, ell):
    cfg = ExperimentConfig(p=4.0, ell=ell, family=family, num_lattice_shifts=3)
    sym = next(s for s in symbol_family(family, 2) if s.name == name)
    k_max = min(finest_resolved_generation(make_grid(2, cfg.box, 16)), cfg.stat_k_max)
    got = _nwo_statistic([sym], cfg, _lattice_systems(cfg, k_max))[0]
    want = _nwo_per_cube(sym, cfg, k_max)
    assert want > 0.0
    assert abs(got - want) <= 1e-12 * want


def test_dyadic_statistics_exact_zero_for_controls():
    osc_cfg = ExperimentConfig(p=2.0, family="divergence", num_lattice_shifts=2)
    nwo_cfg = ExperimentConfig(p=4.0, num_lattice_shifts=2)
    k_max = min(finest_resolved_generation(make_grid(2, nwo_cfg.box, 16)), nwo_cfg.stat_k_max)
    for sym in symbol_family("default", 2):
        if sym.kind == "perhalf-constant":
            osc = _oscillation_partials([sym], osc_cfg, _lattice_systems(osc_cfg, osc_cfg.stat_k_max))[0]
            assert all(v == 0.0 for v in osc.values())
            assert _nwo_statistic([sym], nwo_cfg, _lattice_systems(nwo_cfg, k_max))[0] == 0.0


def test_nwo_statistic_builds_one_witness_grid_per_generation(monkeypatch):
    from nrlab import harness

    calls = []

    def counting(ball, ppa):
        calls.append(ball.radius)
        return ball_microgrid(ball, ppa)

    monkeypatch.setattr(harness, "ball_microgrid", counting)
    cfg = ExperimentConfig(num_lattice_shifts=2)
    systems = _lattice_systems(cfg, 1)
    _nwo_statistic(symbol_family("default", 2), cfg, systems)
    generations = [k for pair in systems for system in pair for k in system.generations() if system.cubes[k]]
    assert calls == [2.0 ** (-k) / 12.0 for k in generations]


@pytest.mark.parametrize("size", [1, 7])
def test_nwo_statistic_builds_its_geometry_once_for_the_family(monkeypatch, size):
    # one kernel call and one witness micro-grid per (shift, half,
    # generation) with cubes, whatever the number of symbols
    from nrlab import harness

    calls = {"riesz_kernel": 0, "ball_microgrid": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    cfg = ExperimentConfig(num_lattice_shifts=2)
    systems = _lattice_systems(cfg, 1)
    family = symbol_family("default", 2)[:size]
    assert len(_nwo_statistic(family, cfg, systems)) == size
    generations = sum(1 for pair in systems for system in pair for k in system.generations() if system.cubes[k])
    assert calls == {"riesz_kernel": generations, "ball_microgrid": generations}


def test_family_statistics_equal_one_symbol_calls_bit_for_bit():
    cfg = ExperimentConfig(p=4.0, num_lattice_shifts=2)
    grid = make_grid(2, cfg.box, 16)
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    # the oscillation statistic runs over generations k_min..stat_k_max
    osc_systems = _lattice_systems(cfg, cfg.stat_k_max)
    family = symbol_family("default", 2)
    fields = [SampledField(grid, sym(grid.nodes)) for sym in family]
    single = [
        (
            _energy_statistic([fld], cfg, systems)[0],
            _nwo_statistic([sym], cfg, systems)[0],
            _tail_statistic([fld], cfg, systems[0])[0],
            _double_integral_statistic([fld], cfg)[0],
            _oscillation_partials([sym], cfg, osc_systems)[0],
        )
        for sym, fld in zip(family, fields)
    ]
    for order in (slice(None), slice(None, None, -1)):
        stats = zip(
            _energy_statistic(fields[order], cfg, systems),
            _nwo_statistic(family[order], cfg, systems),
            _tail_statistic(fields[order], cfg, systems[0]),
            _double_integral_statistic(fields[order], cfg),
            _oscillation_partials(family[order], cfg, osc_systems),
        )
        assert list(stats) == single[order]
    assert all(value > 0.0 for row in single[:5] for value in row[:4] + tuple(row[4].values()))


def test_energy_and_tail_label_each_generation_once_for_the_family(monkeypatch):
    from nrlab.dyadic import DyadicSystem

    cfg = ExperimentConfig(p=4.0, num_lattice_shifts=3)
    grid = make_grid(2, cfg.box, 16)
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    fields = [SampledField(grid, sym(grid.nodes)) for sym in symbol_family("default", 2)]
    calls = []
    labels = DyadicSystem.labels

    def counted(self, nodes, k):
        calls.append((id(self), k))
        return labels(self, nodes, k)

    monkeypatch.setattr(DyadicSystem, "labels", counted)
    _energy_statistic(fields, cfg, systems)
    assert calls == [(id(s), k) for pair in systems for s in pair for k in s.generations()]
    calls.clear()
    _tail_statistic(fields, cfg, systems[0])
    assert calls == [(id(s), k) for s in systems[0] for k in s.generations()]


def test_lattice_generations_are_c_ordered_index_blocks():
    # the NWO statistic's row kernels and the labels rely on this layout
    for box, k_max in ((((-2.0, 2.0), (-2.0, 2.0)), 3), (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 2)):
        n = len(box)
        cfg = ExperimentConfig(n=n, box=box, grid_sizes=(8,))
        checked = 0
        for pair in _lattice_systems(cfg, k_max):
            for system in pair:
                for k in system.generations():
                    m = np.array([Q.m for Q in system.cubes[k]])
                    if not len(m):
                        continue
                    shape = tuple(m.max(axis=0) - m.min(axis=0) + 1)
                    block = m.min(axis=0) + np.stack(np.unravel_index(np.arange(np.prod(shape)), shape), axis=-1)
                    assert np.array_equal(m, block), (system.half, system.shift, k)
                    checked += 1
        # every system has cubes in at least one generation
        assert checked >= 2 * cfg.num_lattice_shifts


def test_recorded_block_is_the_c_order_enumeration_of_each_generation():
    # the labels, the sub-cube boxes and the NWO statistic's rows read the
    # record, so it must list exactly cubes[k], in the same order
    for box, k_max in ((((-2.0, 2.0), (-2.0, 2.0)), 3), (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 2)):
        n = len(box)
        cfg = ExperimentConfig(n=n, box=box, grid_sizes=(8,))
        seen = set()
        for pair in _lattice_systems(cfg, k_max):
            for system in pair:
                for k in system.generations():
                    first, shape = system.blocks[k]
                    assert len(first) == len(shape) == n
                    block = [tuple(np.add(first, i)) for i in itertools.product(*map(range, shape))]
                    assert [Q.m for Q in system.cubes[k]] == block, (system.half, system.shift, k)
                    seen.add((system.half, any(system.shift), bool(block)))
        # both halves, shifted and unshifted lattices, empty generations too
        assert {(half, shifted, True) for half in ("plus", "minus") for shifted in (False, True)} <= seen
        if n == 2:
            assert ("plus", True, False) in seen


def test_nwo_kernel_calls_cover_one_cube_per_row(monkeypatch):
    from nrlab import harness

    recorded = []

    def recording(params, x, y, singular="raise"):
        recorded.append((x, y))
        return riesz_kernel(params, x, y, singular)

    monkeypatch.setattr(harness, "riesz_kernel", recording)
    cfg = ExperimentConfig(num_lattice_shifts=2)
    systems = _lattice_systems(cfg, 1)
    _nwo_statistic(symbol_family("default", 2)[:1], cfg, systems)
    generations = [system.cubes[k] for pair in systems for system in pair for k in system.generations()]
    generations = [cubes for cubes in generations if cubes]
    assert len(recorded) == len(generations)
    for (x, y), cubes in zip(recorded, generations):
        rows = sorted({Q.m[-1] for Q in cubes})
        assert x.shape[0] == y.shape[0] == len(rows)
        # the r-th call row holds the micro-points of the first cube of row r
        for r, Q in enumerate(cubes[: len(rows)]):
            assert Q.m[-1] == rows[r] and Q.m[:-1] == cubes[0].m[:-1]
            assert np.all(Q.contains(x[r].reshape(-1, cfg.n)))
        # children by children micro-points by ball micro-points
        assert np.broadcast_shapes(x.shape[:-1], y.shape[:-1])[1:3] == (2**cfg.n, 36)
    assert sum(len(x) for x, _ in recorded) < sum(len(cubes) for cubes in generations)


def test_nwo_statistic_checks_every_cube_witness():
    # A > 0 keeps the witness ball of every admissible cube inside its
    # half, so a cube whose half is wrong stands in for a failing one; it
    # is placed outside the first column, whose cubes carry the kernel
    cfg = ExperimentConfig(num_lattice_shifts=1)
    systems = _lattice_systems(cfg, 1)
    cubes = systems[0][0].cubes[1]
    rows = len({Q.m[-1] for Q in cubes})
    bad = cubes[-1]
    assert cubes.index(bad) >= rows
    cubes[-1] = Cube(bad.k, bad.m, bad.shift, "minus")
    with pytest.raises(ValueError, match="A too small for boundary-adjacent cube"):
        _nwo_statistic(symbol_family("default", 2)[:1], cfg, systems)


def _double_integral_by_reduction(fields, n, p):
    """The double-integral statistic with |x-y|^2 from a last-axis sum."""
    grid = fields[0].grid
    totals = [0.0] * len(fields)
    for mask in (grid.mask_plus, grid.mask_minus):
        x = grid.nodes[mask]
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        den = d2**n
        for i, fld in enumerate(fields):
            b = fld.values[mask]
            totals[i] += float(np.sum(np.abs(b[:, None] - b[None, :]) ** p / den)) * grid.weight**2
    return totals


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [2, 3])
def test_bump_bit_identical_to_reduction_form(n):
    rng = np.random.default_rng(17)
    # r^2 = 0.5625 has no exact reciprocal, so dividing by it is pinned
    c, r = np.array([0.25, 0.5, -0.75])[:n], 0.75
    # the centre, the 2n points c +- r e_j on the support sphere (s^2 == 1
    # exactly), and points inside and just outside the support
    inner = c + r * rng.uniform(-0.8, 0.8, (400, n))
    pts = np.concatenate([c[None], c + r * np.eye(n), c - r * np.eye(n), inner])
    s2 = np.sum((pts - c) ** 2, axis=-1) / r**2
    want = np.zeros(s2.shape)
    inside = s2 < 1.0
    want[inside] = 1.5 * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    got = _mollifier(c, r, 1.5)(pts)
    assert _same_bits(got, want)
    assert got[0] == 1.5 and np.all(got[1 : 2 * n + 1] == 0.0) and np.count_nonzero(got) > 100


@pytest.mark.parametrize("n", [2, 3])
def test_double_integral_distances_bit_identical_to_reduction_form(monkeypatch, n):
    from nrlab import harness

    # an off-centre box, so the node differences are not short dyadic fractions
    box = ((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3))[3 - n :]
    cfg = ExperimentConfig(n=n, ell=1, box=box, grid_sizes=(8,), p=4.0)
    grid = make_grid(n, box, 12 if n == 2 else 6)
    bump = _mollifier(np.array([0.25, 0.5, -0.75])[:n], 0.9)
    fields = [SampledField(grid, bump(grid.nodes)), SampledField(grid, np.prod(grid.nodes, axis=-1))]
    # the statistic's sums absorb one-ulp changes of single |x-y|^2
    # entries, so the squared distances it forms are also compared whole
    recorded = []

    def recording(x, y, _original=harness.squared_distance):
        recorded.append(_original(x, y))
        return recorded[-1]

    monkeypatch.setattr(harness, "squared_distance", recording)
    assert _double_integral_statistic(fields, cfg) == _double_integral_by_reduction(fields, n, cfg.p)
    assert len(recorded) == 2
    for d2, mask in zip(recorded, (grid.mask_plus, grid.mask_minus)):
        x = grid.nodes[mask]
        want = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(want, np.inf)
        assert _same_bits(d2, want)


def test_lower_audit_smoke_statistics_structure():
    cfg = ExperimentConfig(
        p=4.0,
        grid_sizes=(16,),
        audit_C_energy=1e9,
        audit_C_nwo=1e9,
        audit_C_tail=1e9,
        audit_C_double=1e9,
    )
    rep = lower_bound_audit(cfg, N=16)
    assert all(row.note == "" for row in rep.rows)  # inequalities hold
    assert {"energy_C_spread", "nwo_C_spread"} <= set(rep.summary)
    names = {r.aux["statistic"] for r in rep.rows}
    assert names == {"energy", "nwo", "tail", "double"}
    for row in rep.rows:
        if row.symbol in ("halfconst", "uniform"):
            # per-half-constant symbols have vanishing oscillation in every
            # statistic, and exactly so
            assert row.aux["value"] == 0.0
        else:
            assert row.aux["value"] > 0.0 and row.ratio > 0.0


def test_upper_audit_smoke_split_and_rows():
    cfg = ExperimentConfig(p=4.0, grid_sizes=(16,), russo_slack=100.0)
    rep = upper_bound_audit(cfg, N=16)
    assert rep.passed
    for row in rep.rows:
        full = row.aux["mixed_full"]
        assert full <= row.aux["mixed_plus"] + row.aux["mixed_minus"] + 1e-12
        if row.symbol not in ("halfconst", "uniform"):
            assert row.schatten > 0.0 and row.aux["russo_bound"] > 0.0


def test_upper_audit_mixed_full_equals_whole_kernel_norm():
    # the audit, mixed_norm and russo_bound read the two same-half blocks;
    # each must equal the whole kernel's norm, taken as one block, exactly
    for ell, N in itertools.product((1, 2), (16, 32)):
        cfg = ExperimentConfig(p=4.0, ell=ell, grid_sizes=(N,), russo_slack=100.0)
        rep = upper_bound_audit(cfg, N=N)
        riesz = assemble_riesz(ell, make_grid(2, cfg.box, N))
        for sym, row in zip(symbol_family("default", 2), rep.rows):
            op = assemble_commutator(sym, riesz)
            kernel, w = op.kernel, op.weight
            adjoint = mixed_norm([kernel.T], cfg.p, w)
            assert row.aux["mixed_full"] == mixed_norm(op.blocks, cfg.p, w) == mixed_norm([kernel], cfg.p, w)
            assert mixed_norm([B.T for B in op.blocks], cfg.p, w) == adjoint
            assert row.aux["russo_bound"] == russo_bound(op.blocks, cfg.p, w) == russo_bound([kernel], cfg.p, w)


def test_upper_audit_checks_the_kernel_gate(monkeypatch):
    # assembly leaves cross-half entries at zero without evaluating them,
    # so the audit's split check must read the kernel itself
    from nrlab.kernels import riesz_kernel

    def ungated(params, x, y, singular="raise"):
        return riesz_kernel(params, x, y, singular) + 1.0

    monkeypatch.setattr("nrlab.harness.riesz_kernel", ungated)
    rep = upper_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(16,), russo_slack=100.0), N=16)
    assert not rep.passed
    assert all(row.note == "bound violated" for row in rep.rows)


def test_sign_witness_audit_smoke():
    cfg = ExperimentConfig(grid_sizes=(16,))
    sign_bad, mag_bad, margin = sign_witness_audit(cfg, ell=1, count=8)
    assert sign_bad == 0 and mag_bad == 0 and margin >= 1.0


# ---------------------------------------------------------------------------
# verification suite


def test_verify_suite_all_checks_pass():
    rep = verify_suite(ExperimentConfig())
    assert rep.passed
    notes = {row.symbol: row.note for row in rep.rows}
    assert set(notes.values()) <= {"pass", "info"}
    for expected in (
        "riesz_cross_half_zero",
        "semigroup_even_extension",
        "haar_gram_identity",
        "conditional_expectation_tower",
        "schatten2_frobenius",
        "schatten4_trace_identity",
        "witness_sign_constant_ell1",
    ):
        assert expected in notes


def test_verify_suite_catches_broken_reflection(monkeypatch):
    # flipping the image-charge sign turns Neumann into Dirichlet walls;
    # the suite must notice through the conservation/extension checks
    monkeypatch.setattr("nrlab.discretize._REFLECTED_SIGN", -1.0)
    rep = verify_suite(ExperimentConfig())
    assert not rep.passed
    failed = {row.symbol for row in rep.rows if row.note == "fail"}
    assert failed & {"semigroup_conservation_interior", "semigroup_even_extension"}


def test_verify_reports_an_infinite_measurement_as_a_failure(monkeypatch, tmp_path, capsys):
    # Haar functions that evaluate to zero give the coefficient bound a
    # zero right-hand side, so its ratio reads inf; that is a failed
    # check, not an exception
    from dataclasses import replace

    from nrlab import harness
    from nrlab.dyadic import haar_basis

    def vanishing(Q):
        return [replace(h, child_signs=(0.0,) * len(h.child_signs)) for h in haar_basis(Q)]

    monkeypatch.setattr(harness, "haar_basis", vanishing)
    assert cli_main(["verify", "--out", str(tmp_path)]) == 1
    assert "verify: FAIL" in capsys.readouterr().out
    lines = (tmp_path / "invariants.csv").read_text().splitlines()
    assert "haar_coefficient_bound,fail,inf,1" in lines


# ---------------------------------------------------------------------------
# CSV output determinism


def test_rows_csv_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig(**SMOKE)
    paths = []
    for tag in ("a", "b"):
        rep = ratio_study(cfg)
        path = tmp_path / f"rows_{tag}.csv"
        write_rows_csv(path, rep.rows)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    header = paths[0].read_text().splitlines()[0]
    assert header == "experiment,symbol,N,schatten,besov,ratio,aux,note"


def test_invariants_csv_byte_identical_across_runs(tmp_path):
    cfg = ExperimentConfig()
    blobs = []
    for tag in ("a", "b"):
        path = tmp_path / f"inv_{tag}.csv"
        write_invariants_csv(path, verify_suite(cfg))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_spectrum_csv_roundtrip_full_precision(tmp_path):
    from nrlab.spectra import singular_values

    rng = np.random.default_rng(3)
    spec = singular_values(rng.normal(size=(12, 12)))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec, {"p": 4.0, "schatten": 1.25})
    lines = path.read_text().splitlines()
    assert lines[0] == "k,s_k"
    parsed = [float(line.split(",")[1]) for line in lines[1:13]]
    assert np.array_equal(np.asarray(parsed), spec.values)  # 17g is lossless


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_writes_outputs(tmp_path, capsys):
    rc = cli_main(["verify", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert (tmp_path / "v" / "invariants.csv").exists()
    assert (tmp_path / "v" / "config.cfg").exists()
    assert "verify: PASS" in capsys.readouterr().out


def test_cli_ratio_study_deterministic_outputs(tmp_path):
    args = ["ratio-study", "--grid", "8,16", "--p", "4.0"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cli_main(args + ["--out", str(out)])
        outs.append((out / "ratios.csv").read_bytes())
        assert sorted(out.glob("spectrum_*.csv")), "per-symbol spectra missing"
    assert outs[0] == outs[1]


def test_cli_divergence_study_defaults_p_to_n(tmp_path, capsys):
    rc = cli_main(["divergence-study", "--grid", "8,16", "--out", str(tmp_path / "d")])
    assert rc in (0, 1)  # growth at smoke scale is not asserted here
    out = capsys.readouterr().out
    assert "divergence:" in out
    assert (tmp_path / "d" / "ratios.csv").exists()


def test_cli_audits_run(tmp_path):
    cfg = ExperimentConfig(
        grid_sizes=(16,),
        audit_C_energy=1e9,
        audit_C_nwo=1e9,
        audit_C_tail=1e9,
        audit_C_double=1e9,
        russo_slack=100.0,
    )
    path = tmp_path / "audit.cfg"
    cfg.to_file(path)
    # exit code tracks the C-stability verdict, which is not asserted at
    # smoke scale; the run itself and its outputs must not depend on it
    assert cli_main(["lower-audit", "--config", str(path), "--out", str(tmp_path / "lo")]) in (0, 1)
    assert cli_main(["upper-audit", "--config", str(path), "--out", str(tmp_path / "up")]) == 0
    assert (tmp_path / "lo" / "ratios.csv").exists()
    assert (tmp_path / "up" / "ratios.csv").exists()


def test_cli_config_file_respected(tmp_path, capsys):
    cfg = ExperimentConfig(p=6.0, seed=11)
    path = tmp_path / "c.cfg"
    cfg.to_file(path)
    rc = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    written = ExperimentConfig.from_file(tmp_path / "o" / "config.cfg")
    assert written.p == 6.0 and written.seed == 11


def test_cli_kernel_eval(capsys):
    rc = cli_main(["kernel-eval", "--x", "0.3,0.7", "--y", "0.1,1.2", "--t", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "riesz[ell=1]" in out and "heat_neumann" in out


def test_cli_kernel_eval_rejects_bad_point():
    with pytest.raises(SystemExit, match="expected 2 coordinates"):
        cli_main(["kernel-eval", "--x", "0.3", "--y", "0.1,1.2"])


def test_cli_export_matrix_roundtrip(tmp_path):
    rc = cli_main(
        ["export-matrix", "--grid", "8", "--symbol", "bump_a35", "--out", str(tmp_path)]
    )
    assert rc == 0
    path = tmp_path / "matrix_bump_a35_N8.bin"
    assert path.exists() and Path(str(path) + ".cfg").exists()
    matrix, header, sidecar = read_matrix(path)
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 8)
    op = assemble_commutator(symbol_family("default", 2)[0], assemble_riesz(1, grid))
    assert np.array_equal(matrix, op.matrix)
    assert header == {"n": 2, "N": 8, "ell": 1}
    assert sidecar["symbol"] == "bump_a35"


def test_cli_export_matrix_unknown_symbol(tmp_path):
    with pytest.raises(SystemExit, match="not in family"):
        cli_main(["export-matrix", "--symbol", "ghost", "--out", str(tmp_path)])
