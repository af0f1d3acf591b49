"""Experiment harness: config round-trips, symbol families, study drivers
at smoke scale, the verification suite, CSV determinism, and the CLI."""

import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nrlab.cli import main as cli_main
from nrlab.discretize import Symbol, assemble_commutator, ball_microgrid, make_grid, read_matrix, support_core
from nrlab.dyadic import (
    Cube,
    SampledField,
    box_midpoint_mean,
    build_system,
    finest_resolved_generation,
    generation_labels,
    median,
    midpoint_nodes,
)
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
from nrlab.kernels import KernelParams, heat_kernel_full, heat_kernel_neumann, riesz_kernel, sign_witness
from nrlab.kvconfig import write_kv_file
from nrlab.spectra import mixed_norm, russo_bound

SMOKE = dict(p=4.0, grid_sizes=(8, 16), t_per_decade=6, shift_per_decade=6, shift_angles=8)


@pytest.fixture
def controls(monkeypatch):
    """The name of a family of the default family's two per-half
    constants.  They have no centre, so they fit a box of any dimension:
    a 3-D config names this family, since no built-in one is 3-D."""
    from nrlab import harness

    rows = tuple(row for row in harness._FAMILIES["default"] if row[1] == "halfconst")
    monkeypatch.setitem(harness._FAMILIES, "controls", rows)
    return "controls"


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


def _no_spectrum(*args):
    raise AssertionError("a spectrum was taken before the precondition")


def test_divergence_study_refuses_a_single_grid_size(monkeypatch):
    # growth compares the last norm with the first, which one size cannot
    # show, so the study would FAIL every non-control symbol
    from nrlab import harness

    monkeypatch.setattr(harness, "_commutator_spectrum", _no_spectrum)
    message = "divergence study needs at least two grid_sizes to measure growth, got (32,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        divergence_study(ExperimentConfig(p=2.0, grid_sizes=(32,)))


@pytest.mark.parametrize("N", [8, 12])
def test_lower_audit_refuses_a_window_of_one_generation(monkeypatch, N):
    # on the default box N = 8 and 12 resolve only k = -1: the energy sums
    # are empty, every constant is 0 and the spread infinite
    from nrlab import harness

    monkeypatch.setattr(harness, "_commutator_spectrum", _no_spectrum)
    message = (
        "lower-bound audit needs at least two generations, got "
        f"k_min..min(finest_resolved_generation, stat_k_max) = -1..-1 at N={N}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        lower_bound_audit(ExperimentConfig(grid_sizes=(N,)))


def test_every_window_the_lower_audit_accepts_has_a_cube_in_every_shift(monkeypatch):
    # the NWO statistic's precondition: a generation with a cube in one
    # lattice shift leaves the next generation a cube in every shift, so a
    # window that holds cubes in two generations leaves no shift empty.
    # Scanned on the systems the audit itself builds, up to its first
    # spectrum
    from nrlab import harness

    class Accepted(Exception):
        pass

    def accepted(*args):
        raise Accepted

    built = []

    def recording(*args, _original=harness._lattice_systems):
        built.append(_original(*args))
        return built[-1]

    monkeypatch.setattr(harness, "_lattice_systems", recording)
    monkeypatch.setattr(harness, "_commutator_spectrum", accepted)
    boxes = [
        ((-2.0, 2.0), (-2.0, 2.0)),
        ((-1.0, 1.0), (-0.6, 0.6)),
        ((-1.0, 1.0), (-1.0, 1.0)),
        ((-1.5, 1.3), (-1.1, 1.7)),
        ((-0.7, 1.3), (-0.9, 0.5)),
    ]
    counts = {"accepted": 0, "refused": 0}
    for box, N, k_min, stat_k_max in itertools.product(boxes, (8, 16, 32, 64), range(-1, 3), range(1, 4)):
        try:
            cfg = ExperimentConfig(box=box, grid_sizes=(N,), k_min=k_min, stat_k_max=stat_k_max)
        except ValueError:
            continue
        built.clear()
        try:
            lower_bound_audit(cfg)
        except ValueError:
            counts["refused"] += 1
            continue
        except Accepted:
            counts["accepted"] += 1
        (systems,) = built
        assert len(systems) == cfg.num_lattice_shifts
        for pair in systems:
            assert any(system.cubes[k] for system in pair for k in system.generations()), (box, N, k_min, stat_k_max)
    assert counts["accepted"] >= 40 and counts["refused"] >= 40, counts


def test_lower_audit_refuses_a_window_with_one_generation_of_cubes(monkeypatch):
    # the window k = -1..1 passes the resolution check, but the cubes of
    # k = -1 and 0 are taller than either half: with one generation every
    # energy statistic is 0 and the audit would FAIL whatever its constants
    from nrlab import harness

    monkeypatch.setattr(harness, "_commutator_spectrum", _no_spectrum)
    message = (
        "lower-bound audit needs at least two generations with an admissible cube, got [1] "
        "in the window -1..1 at N=16 on the box ((-1.0, 1.0), (-0.6, 0.6))"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        lower_bound_audit(ExperimentConfig(p=4.0, box=((-1.0, 1.0), (-0.6, 0.6)), grid_sizes=(16,)))


def test_upper_audit_requires_p_above_two():
    with pytest.raises(ValueError, match="p > max"):
        upper_bound_audit(ExperimentConfig(p=2.0))


@pytest.mark.parametrize(
    "run, p, message",
    [
        (ratio_study, 2.0, "ratio study needs p > n, got p=2.0, n=2"),
        (divergence_study, 3.0, "divergence study needs p = n, got p=3.0, n=2"),
        (lower_bound_audit, 2.0, "lower-bound audit needs p > n, got p=2.0, n=2"),
        (upper_bound_audit, 2.0, "upper-bound audit needs p > max(n, 2), got p=2.0, n=2"),
    ],
    ids=["ratio", "divergence", "lower-audit", "upper-audit"],
)
def test_study_preconditions_name_the_rule_and_the_values(run, p, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run(ExperimentConfig(p=p))


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
    # there is no Riesz operator to assemble: each commutator evaluates
    # the kernel on its own core strips; the Besov routes and the dyadic
    # systems are still built once per grid for the whole family
    from nrlab import discretize, harness

    assert not hasattr(harness, "assemble_riesz") and not hasattr(discretize, "assemble_riesz")
    names = ("assemble_commutator", "besov_heat_norm", "besov_neumann_norm", "build_system")
    calls = _count_calls(monkeypatch, harness, names)
    ratio_study(ExperimentConfig(**SMOKE))
    assert calls == {"assemble_commutator": 2 * 7, "besov_heat_norm": 2, "besov_neumann_norm": 2, "build_system": 0}

    calls.update(dict.fromkeys(calls, 0))
    divergence_study(ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16), num_lattice_shifts=2))
    assert calls == {"assemble_commutator": 2 * 5, "besov_heat_norm": 0, "besov_neumann_norm": 0, "build_system": 2 * 2}

    calls.update(dict.fromkeys(calls, 0))
    audit = dict(audit_C_energy=1e9, audit_C_nwo=1e9, audit_C_tail=1e9, audit_C_double=1e9)
    lower_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(16,), num_lattice_shifts=3, **audit))
    assert calls == {"assemble_commutator": 7, "besov_heat_norm": 0, "besov_neumann_norm": 0, "build_system": 2 * 3}
    calls.update(dict.fromkeys(calls, 0))
    upper_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(16,)))
    assert calls == {"assemble_commutator": 7, "besov_heat_norm": 0, "besov_neumann_norm": 0, "build_system": 0}


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
    # a study holds one commutator at a time: none, of this grid or an
    # earlier one, is alive when the next is assembled (the allocation
    # guard below bounds the memory of each)
    from nrlab import harness

    made = []

    def commutator(*args):
        assert all(ref() is None for ref in made)
        op = assemble_commutator(*args)
        made.append(weakref.ref(op))
        return op

    monkeypatch.setattr(harness, "assemble_commutator", commutator)
    ratio_study(ExperimentConfig(**SMOKE))
    divergence_study(ExperimentConfig(p=2.0, family="divergence", grid_sizes=(8, 16), num_lattice_shifts=2))
    assert len(made) == 2 * 7 + 2 * 5


def test_study_and_audit_at_n64_allocate_less_than_one_half_block():
    # no study or audit forms an m x m array: at N = 64 (m = 2048 nodes
    # per half) the ratio study and both audits each peak below one
    # m x m float64 array, 32 MiB
    limit = 8 * 2048**2
    for run in (
        lambda: ratio_study(ExperimentConfig(grid_sizes=(32, 64))),
        lambda: upper_bound_audit(ExperimentConfig(grid_sizes=(64,))),
        lambda: lower_bound_audit(ExperimentConfig(grid_sizes=(64,))),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_ratio_study_without_resolved_symbol_names_cause(controls):
    with pytest.raises(ValueError, match="no non-control symbol .* resolved at the top grid size N=16"):
        ratio_study(ExperimentConfig(**SMOKE, family=controls))


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


def _nwo_table_keys(cfg, systems):
    """The (half, generation) entries of the NWO statistic's witness
    table that it builds: for ell < n both halves share the plus one."""
    halves = ("plus", "minus") if cfg.ell == cfg.n else ("plus",)
    gens = sorted({k for pair in systems for system in pair for k in system.generations()})
    return [(half, k) for half in halves for k in gens]


def test_nwo_statistic_builds_one_witness_grid_per_generation(monkeypatch):
    # one witness micro-grid per entry of the witness table, on its
    # reference cube; every cube's ball is a translate of it
    from nrlab import harness

    calls = []

    def counting(ball, ppa):
        calls.append(ball.radius)
        return ball_microgrid(ball, ppa)

    monkeypatch.setattr(harness, "ball_microgrid", counting)
    for ell in (1, 2):
        calls.clear()
        cfg = ExperimentConfig(ell=ell, num_lattice_shifts=2)
        systems = _lattice_systems(cfg, 1)
        _nwo_statistic(symbol_family("default", 2), cfg, systems)
        assert calls == [2.0 ** (-k) / 12.0 for _, k in _nwo_table_keys(cfg, systems)]


@pytest.mark.parametrize("size", [1, 7])
def test_nwo_statistic_builds_its_geometry_once_for_the_family(monkeypatch, size):
    # one witness micro-grid and one direct term per witness-table entry,
    # before the lattice loop; then one kernel call per (shift, half,
    # generation) with cubes, and one call per symbol and shift, whatever
    # the number of symbols
    from nrlab import harness

    names = ("riesz_kernel", "riesz_direct_term", "riesz_kernel_from_direct", "ball_microgrid")
    calls = _count_calls(monkeypatch, harness, names)
    symbol_calls = []

    def counted(sym):
        return Symbol(sym.name, lambda x: symbol_calls.append(sym.name) or sym(x), sym.kind)

    for ell in (1, 2):
        calls.update(dict.fromkeys(names, 0))
        symbol_calls.clear()
        cfg = ExperimentConfig(ell=ell, num_lattice_shifts=2)
        systems = _lattice_systems(cfg, 1)
        family = symbol_family("default", 2)[:size]
        got = _nwo_statistic([counted(sym) for sym in family], cfg, systems)
        assert got == _nwo_statistic(family, cfg, systems)
        generations = sum(1 for pair in systems for system in pair for k in system.generations() if system.cubes[k])
        table = len(_nwo_table_keys(cfg, systems))
        assert calls == {
            "riesz_kernel": 0,
            "riesz_direct_term": 2 * table,
            "riesz_kernel_from_direct": 2 * generations,
            "ball_microgrid": 2 * table,
        }
        assert symbol_calls == [sym.name for _ in systems for sym in family]


def test_family_statistics_equal_one_symbol_calls_bit_for_bit():
    cfg = ExperimentConfig(p=4.0, num_lattice_shifts=2)
    grid = make_grid(2, cfg.box, 16)
    systems = _lattice_systems(cfg, min(finest_resolved_generation(grid), cfg.stat_k_max))
    # the oscillation statistic runs over generations k_min..stat_k_max
    osc_systems = _lattice_systems(cfg, cfg.stat_k_max)
    labels = [[generation_labels(grid, system) for system in pair] for pair in systems]
    family = symbol_family("default", 2)
    fields = [SampledField(grid, sym(grid.nodes)) for sym in family]
    single = [
        (
            _energy_statistic([fld], cfg, systems, labels)[0],
            _nwo_statistic([sym], cfg, systems)[0],
            _tail_statistic([fld], cfg, systems[0], labels[0])[0],
            _double_integral_statistic([fld], cfg)[0],
            _oscillation_partials([sym], cfg, osc_systems)[0],
        )
        for sym, fld in zip(family, fields)
    ]
    for order in (slice(None), slice(None, None, -1)):
        stats = zip(
            _energy_statistic(fields[order], cfg, systems, labels),
            _nwo_statistic(family[order], cfg, systems),
            _tail_statistic(fields[order], cfg, systems[0], labels[0]),
            _double_integral_statistic(fields[order], cfg),
            _oscillation_partials(family[order], cfg, osc_systems),
        )
        assert list(stats) == single[order]
    assert all(value > 0.0 for row in single[:5] for value in row[:4] + tuple(row[4].values()))


def test_energy_and_tail_label_each_generation_once_for_the_family(monkeypatch):
    # the lower audit labels each (system, generation) once for the whole
    # family, and the energy and tail statistics share the unshifted pair
    from nrlab import harness
    from nrlab.dyadic import DyadicSystem

    cfg = ExperimentConfig(p=4.0, grid_sizes=(16,), num_lattice_shifts=3)
    grid = make_grid(2, cfg.box, 16)
    systems = []
    lattice_systems = harness._lattice_systems

    def recorded(*args):
        systems.extend(lattice_systems(*args))
        return systems

    calls = []
    labels = DyadicSystem.labels

    def counted(self, axes, k):
        calls.append((id(self), k))
        return labels(self, axes, k)

    monkeypatch.setattr(harness, "_lattice_systems", recorded)
    monkeypatch.setattr(DyadicSystem, "labels", counted)
    lower_bound_audit(cfg)
    assert len(systems) == cfg.num_lattice_shifts
    assert calls == [(id(s), k) for pair in systems for s in pair for k in s.generations()]
    assert max(s.k_max for pair in systems for s in pair) == finest_resolved_generation(grid)


def test_lattice_generations_are_c_ordered_index_blocks(controls):
    # the NWO statistic's row kernels and the labels rely on this layout
    for box, k_max in ((((-2.0, 2.0), (-2.0, 2.0)), 3), (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 2)):
        n = len(box)
        cfg = ExperimentConfig(n=n, box=box, grid_sizes=(8,), family=controls)
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


def test_recorded_block_is_the_c_order_enumeration_of_each_generation(controls):
    # the labels, the sub-cube boxes and the NWO statistic's rows read the
    # record, so it must list exactly cubes[k], in the same order
    for box, k_max in ((((-2.0, 2.0), (-2.0, 2.0)), 3), (((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3)), 2)):
        n = len(box)
        cfg = ExperimentConfig(n=n, box=box, grid_sizes=(8,), family=controls)
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
    from nrlab.kernels import riesz_kernel_from_direct

    recorded = []

    def recording(params, direct, xn, yn, singular="raise"):
        recorded.append((direct, xn, yn))
        return riesz_kernel_from_direct(params, direct, xn, yn, singular)

    monkeypatch.setattr(harness, "riesz_kernel_from_direct", recording)
    for ell in (1, 2):
        recorded.clear()
        cfg = ExperimentConfig(ell=ell, num_lattice_shifts=2)
        systems = _lattice_systems(cfg, 1)
        _nwo_statistic(symbol_family("default", 2)[:1], cfg, systems)
        generations = [system.cubes[k] for pair in systems for system in pair for k in system.generations()]
        generations = [cubes for cubes in generations if cubes]
        assert len(recorded) == len(generations)
        tables = {}
        for (direct, xn, yn), cubes in zip(recorded, generations):
            rows = sorted({Q.m[-1] for Q in cubes})
            assert xn.shape[0] == yn.shape[0] == len(rows)
            # the r-th call row holds the normal coordinates of the micro-points
            # of the first cube of row r
            for r, Q in enumerate(cubes[: len(rows)]):
                assert Q.m[-1] == rows[r] and Q.m[:-1] == cubes[0].m[:-1]
                lo = Q.vertex[-1]
                assert np.all((xn[r] >= lo) & (xn[r] < lo + Q.side))
            # children by children micro-points by ball micro-points
            shape = np.broadcast_shapes(direct.value.shape, xn.shape, yn.shape)
            assert shape[1] == 2**cfg.n * 36 and direct.value.shape == shape[1:]
            # one direct-term table per (half, generation), shared by the lattices
            key = (cubes[0].half if ell == cfg.n else "plus", cubes[0].k)
            assert tables.setdefault(key, direct) is direct
        assert len(tables) == len(_nwo_table_keys(cfg, systems))
        assert sum(len(xn) for _, xn, _ in recorded) < sum(len(cubes) for cubes in generations)


def test_witness_tables_translate_to_each_cubes_witness_and_kernel():
    # a cube's witness micro-grid is the table's translated by the cube
    # centre, and the table's direct term, completed by the cube's
    # reflected term, is the cube's own kernel, to rounding, in both
    # halves and for both ell
    from nrlab.harness import _witness_tables
    from nrlab.kernels import riesz_kernel_from_direct

    for ell in (1, 2):
        cfg = ExperimentConfig(ell=ell, num_lattice_shifts=2)
        params = KernelParams(2, ell)
        systems = _lattice_systems(cfg, 1)
        tables = _witness_tables(cfg, params, range(-1, 2))
        for system in systems[1]:
            for k in system.generations():
                table = tables[system.half, k]
                for Q in system.cubes[k]:
                    y, wy = ball_microgrid(sign_witness(Q, params, cfg.witness_A)[1], 8)
                    assert wy == table.wy
                    assert np.allclose(table.y + (Q.center - table.centre), y, rtol=0.0, atol=1e-14)
                    kids = [
                        Cube(k + 1, tuple(2 * m + c for m, c in zip(Q.m, corner)), Q.shift, Q.half)
                        for corner in itertools.product((0, 1), repeat=2)
                    ]
                    x = np.concatenate([midpoint_nodes(kid.box, 6) for kid in kids])
                    want = riesz_kernel(params, x[:, None, :], y[None, :, :])
                    got = riesz_kernel_from_direct(params, table.direct, x[:, None, -1], y[None, :, -1])
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (ell, Q)


def _core_row_distances(x, core):
    """|x_S - x|^2 over the core rows S from a last-axis sum, +inf at each
    row's own node."""
    d2 = np.sum((x[core][:, None, :] - x[None, :, :]) ** 2, axis=-1)
    d2[np.arange(len(d2)), np.flatnonzero(core)] = np.inf
    return d2


def _double_integral_by_reduction(fields, n, p):
    """The double-integral statistic with |x-y|^2 from a last-axis sum, in
    the statistic's order: per half and field, the core rows' terms, then
    their off-core columns again."""
    grid = fields[0].grid
    totals = [0.0] * len(fields)
    for idx in grid.half_indices():
        x = grid.nodes[idx]
        for i, fld in enumerate(fields):
            b = fld.values[idx]
            core = support_core(b)
            terms = np.abs(b[core][:, None] - b[None, :]) ** p / _core_row_distances(x, core) ** n
            totals[i] += float(terms.sum() + terms[:, ~core].sum()) * grid.weight**2
    return totals


def _double_integral_over_every_pair(fields, n, p):
    """The double integral summed over every same-half pair, m x m per half."""
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
    want[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    got = _mollifier(c, r)(pts)
    assert _same_bits(got, want)
    assert got[0] == 1.0 and np.all(got[1 : 2 * n + 1] == 0.0) and np.count_nonzero(got) > 100


@pytest.mark.parametrize("n", [2, 3])
def test_double_integral_distances_bit_identical_to_reduction_form(monkeypatch, controls, n):
    from nrlab import harness

    # an off-centre box, so the node differences are not short dyadic fractions
    box = ((-1.1, 0.9), (-1.3, 0.7), (-0.7, 1.3))[3 - n :]
    cfg = ExperimentConfig(n=n, ell=1, box=box, grid_sizes=(8,), p=4.0, family=controls)
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
    got = _double_integral_statistic(fields, cfg)
    assert got == _double_integral_by_reduction(fields, n, cfg.p)
    # summed over every pair instead, the same terms are added in another
    # order, so only a bound holds there
    want = _double_integral_over_every_pair(fields, n, cfg.p)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    # one core-row strip per half and field, with +inf at each row's node
    halves = grid.half_indices()
    assert len(recorded) == len(halves) * len(fields) == 4
    strips = iter(recorded)
    for idx in halves:
        for fld in fields:
            core = support_core(fld.values[idx])
            assert 0 < np.count_nonzero(core) < idx.size
            assert _same_bits(next(strips), _core_row_distances(grid.nodes[idx], core))


def test_lower_audit_smoke_statistics_structure():
    cfg = ExperimentConfig(
        p=4.0,
        grid_sizes=(16,),
        audit_C_energy=1e9,
        audit_C_nwo=1e9,
        audit_C_tail=1e9,
        audit_C_double=1e9,
    )
    rep = lower_bound_audit(cfg)
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
    rep = upper_bound_audit(cfg)
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
        rep = upper_bound_audit(cfg)
        grid = make_grid(2, cfg.box, N)
        for sym, row in zip(symbol_family("default", 2), rep.rows):
            op = assemble_commutator(sym, ell, grid)
            kernel, w = op.kernel, op.weight
            adjoint = mixed_norm([kernel.T], cfg.p, w)
            assert row.aux["mixed_full"] == mixed_norm(op.blocks, cfg.p, w) == mixed_norm([kernel], cfg.p, w)
            assert mixed_norm([B.T for B in op.blocks], cfg.p, w) == adjoint
            assert row.aux["russo_bound"] == russo_bound(op.blocks, cfg.p, w) == russo_bound([kernel], cfg.p, w)


def test_upper_audit_bound_is_the_full_mixed_norm_for_tangential_ell():
    # for ell < n the commutator is symmetric, so its adjoint's column
    # norms, each added row by row like the direct ones, are the same
    # sums, and the bound sqrt(k * k) is k itself
    for N in (16, 32):
        rep = upper_bound_audit(ExperimentConfig(p=4.0, ell=1, grid_sizes=(N,), russo_slack=100.0))
        for row in rep.rows:
            assert row.aux["russo_bound"] == row.aux["mixed_full"]
            assert rep.spectra[f"upper_{row.symbol}_N{N}"][1]["russo_bound"] == row.aux["mixed_full"]


@pytest.mark.parametrize("ell", [1, 2])
def test_upper_audit_reads_each_commutator_strip_once(monkeypatch, ell):
    # one operator_column_norms call per commutator gives the direct and
    # the adjoint column norms, each strip raised to the p-th power once:
    # two strips per block, one for a symmetric block (for ell < n the
    # column strip is the row strip's transpose view; for ell = n only an
    # empty core's empty strips are), two blocks per commutator, seven
    # symbols
    from nrlab import harness, spectra

    cfg = ExperimentConfig(p=4.0, ell=ell, grid_sizes=(16,), russo_slack=100.0)
    grid = make_grid(2, cfg.box, 16)
    cores = [core for sym in symbol_family("default", 2) for core in assemble_commutator(sym, ell, grid).cores]
    symmetric = len(cores) if ell == 1 else sum(not core.any() for core in cores)
    calls = _count_calls(monkeypatch, harness, ("operator_column_norms",))
    powers = _count_calls(monkeypatch, spectra, ("abs_power",))
    rep = upper_bound_audit(cfg)
    assert len(rep.rows) == 7
    assert calls == {"operator_column_norms": 7}
    assert (len(cores), symmetric) == (14, 14 if ell == 1 else 8)
    assert powers == {"abs_power": 2 * len(cores) - symmetric}


def test_upper_audit_checks_the_kernel_gate(monkeypatch):
    # assembly leaves cross-half entries at zero without evaluating them,
    # so the audit's split check must read the kernel itself
    from nrlab.kernels import riesz_kernel

    def ungated(params, x, y, singular="raise"):
        return riesz_kernel(params, x, y, singular) + 1.0

    monkeypatch.setattr("nrlab.harness.riesz_kernel", ungated)
    rep = upper_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(16,), russo_slack=100.0))
    assert not rep.passed
    assert all(row.note == "bound violated" for row in rep.rows)


def test_upper_audit_gate_check_covers_every_cross_half_offset(monkeypatch):
    # a kernel whose gate fails only where x' - y' is the largest offset
    # of the grid, x on the last column and y on the first: the check
    # evaluates x on the edge columns only, and must still see it
    from nrlab.kernels import riesz_kernel

    cfg = ExperimentConfig(p=4.0, grid_sizes=(16,), russo_slack=100.0)
    axis = make_grid(2, cfg.box, 16).axes[0]
    widest = axis[-1] - axis[0]

    def leaking(params, x, y, singular="raise"):
        x, y = np.asarray(x), np.asarray(y)
        leak = (x[..., -1] * y[..., -1] < 0.0) & (x[..., 0] - y[..., 0] == widest)
        return riesz_kernel(params, x, y, singular) + leak

    monkeypatch.setattr("nrlab.harness.riesz_kernel", leaking)
    rep = upper_bound_audit(cfg)
    assert not rep.passed
    assert all(row.note == "bound violated" for row in rep.rows)


@pytest.mark.parametrize("N", [16, 32])
def test_upper_audit_gate_check_evaluates_edge_columns_only(monkeypatch, N):
    # 2^{n-1} tangential corners, N/2 normal coordinates each, against the
    # N^n/2 nodes of the other half, in each direction: N^3 pairs at n = 2
    # instead of the 2 (N^2/2)^2 cross-half pairs
    from nrlab.kernels import riesz_kernel

    pairs = []

    def counting(params, x, y, singular="raise"):
        pairs.append(math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1])))
        return riesz_kernel(params, x, y, singular)

    monkeypatch.setattr("nrlab.harness.riesz_kernel", counting)
    rep = upper_bound_audit(ExperimentConfig(p=4.0, grid_sizes=(N,)))
    assert rep.passed
    assert sum(pairs) == N**3


def test_audits_at_n32_peak_below_the_gate_check_of_every_pair():
    # the upper audit's all-pairs gate check set both audits' peak at
    # 4.16 MiB (tracemalloc, N = 32, ell = 1, default family)
    cfg = ExperimentConfig(p=4.0, ell=1, grid_sizes=(32,))
    for run in (lower_bound_audit, upper_bound_audit):
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.16 * 2**20, run.__name__


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


def test_verify_refuses_an_asymmetric_box_before_its_first_check(monkeypatch, tmp_path, capsys):
    # the even-extension check mirrors the grid across x_n = 0; a box that
    # straddles the interface without being symmetric there is refused
    # by name before any check runs, and the ratio study still runs on it
    from nrlab import harness

    ran = []
    monkeypatch.setattr(harness, "_check", lambda *args, **kwargs: ran.append(args))
    box = ((-1.0, 3.0), (-2.5, 1.5))
    with pytest.raises(ValueError, match="verify needs box symmetric across x_n = 0 .*got \\(-2.5, 1.5\\)"):
        verify_suite(ExperimentConfig(box=box))
    config = tmp_path / "asym.cfg"
    write_kv_file(config, {"box": [-1.0, 3.0, -2.5, 1.5]})
    assert cli_main(["verify", "--config", str(config), "--out", str(tmp_path / "verify")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nrlab verify: error: verify needs box symmetric") and err.count("\n") == 1
    assert ran == [] and not (tmp_path / "verify").exists()
    rep = ratio_study(ExperimentConfig(**SMOKE, box=box))
    assert rep.rows and all(math.isfinite(r.schatten) for r in rep.rows)


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


def test_cli_kernel_eval_rejects_bad_point(capsys):
    assert cli_main(["kernel-eval", "--x", "0.3", "--y", "0.1,1.2"]) == 2
    assert capsys.readouterr().err == "nrlab kernel-eval: error: argument --x: expected 2 coordinates, got 1\n"


def test_cli_kernel_eval_prints_plain_numbers(capsys):
    x, y, t = np.array([0.3, 0.7]), np.array([0.1, 1.2]), 0.25
    for ell in (1, 2):
        assert cli_main(["kernel-eval", "--ell", str(ell), "--x", "0.3,0.7", "--y", "0.1,1.2", "--t", "0.25"]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert {name: float(text) for name, text in printed.items()} == {
            f"riesz[ell={ell}](x, y)": riesz_kernel(KernelParams(2, ell), x, y, singular="zero"),
            "heat_full[t=0.25](x, y)": heat_kernel_full(t, x, y),
            "heat_neumann[t=0.25](x, y)": heat_kernel_neumann(t, x, y),
        }


@pytest.mark.parametrize(
    "flag, value, rule",
    [
        ("--x", "a,0.5", "comma-separated finite numbers"),
        ("--y", "0.1,nan", "comma-separated finite numbers"),
        ("--x", "0.3,inf", "comma-separated finite numbers"),
        ("--t", "-1", "a finite number > 0"),
        ("--t", "nan", "a finite number > 0"),
    ],
)
def test_cli_kernel_eval_fails_naming_the_flag(flag, value, rule, capsys):
    args = {"--x": "0.3,0.7", "--y": "0.1,1.2", "--t": "0.25", flag: value}
    with pytest.raises(SystemExit) as exc:
        cli_main(["kernel-eval", *itertools.chain.from_iterable(args.items())])
    assert exc.value.code == 2
    assert f"argument {flag}: expected {rule}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["32,64,", "32.5"])
def test_cli_grid_fails_naming_the_flag(grid, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["ratio-study", "--grid", grid, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument --grid: expected comma-separated integers, got {grid!r}" in capsys.readouterr().err


def test_cli_export_matrix_roundtrip(tmp_path):
    rc = cli_main(
        ["export-matrix", "--grid", "8", "--symbol", "bump_a35", "--out", str(tmp_path)]
    )
    assert rc == 0
    path = tmp_path / "matrix_bump_a35_N8.bin"
    assert path.exists() and Path(str(path) + ".cfg").exists()
    matrix, header, sidecar = read_matrix(path)
    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 8)
    op = assemble_commutator(symbol_family("default", 2)[0], 1, grid)
    assert np.array_equal(matrix, op.matrix)
    assert header == {"n": 2, "N": 8, "ell": 1}
    assert sidecar["symbol"] == "bump_a35"


@pytest.mark.parametrize("ell", [1, 2])
def test_cli_export_matrix_bytes_are_pinned(tmp_path, ell):
    # SHA-256 of the export; odd_bump has a core in both halves.  Its
    # values are pinned against an independent evaluation in
    # test_discretize.py; the bytes also fix the order the strips are
    # scattered in (the column strip first, then the row strip), which
    # sets the sign of the zeros they hold
    digest = {
        1: "6d39f37170fd5ba8a8825edbdb53d103274caf810db3e1281859ee48a9cf78a4",
        2: "be3e000e9e9c9fa68418e643a189d0b66b4c30101c78f7bc7d431cbef02d7df4",
    }[ell]
    rc = cli_main(["export-matrix", "--grid", "8", "--ell", str(ell), "--symbol", "odd_bump", "--out", str(tmp_path)])
    assert rc == 0
    assert hashlib.sha256((tmp_path / "matrix_odd_bump_N8.bin").read_bytes()).hexdigest() == digest


def test_export_matrix_holds_no_copy_of_the_matrix(tmp_path):
    # the payload is written in column slabs: the peak stays below one
    # M x M float64 array (it was three: the matrix, its little-endian
    # copy and the column-major bytes)
    from nrlab.discretize import export_matrix

    grid = make_grid(2, ((-2.0, 2.0), (-2.0, 2.0)), 32)
    op = assemble_commutator(next(s for s in symbol_family("default", 2) if s.name == "odd_bump"), 2, grid)
    payload = 8 * len(grid.nodes) ** 2
    tracemalloc.start()
    try:
        export_matrix(op, tmp_path / "m.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < payload
    matrix, _, _ = read_matrix(tmp_path / "m.bin")
    assert matrix.tobytes() == op.matrix.tobytes()


def test_cli_export_matrix_unknown_symbol(tmp_path, capsys):
    assert cli_main(["export-matrix", "--symbol", "ghost", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "nrlab export-matrix: error: --symbol 'ghost' not in family 'default'\n"


# one invalid value per ExperimentConfig field, after the first cases;
# an out_dir string is a path below tmp_path, under a file, where no
# directory can be made
_SMOKE_KV = {"grid_sizes": [8, 16], "t_per_decade": 6, "shift_per_decade": 6, "shift_angles": 8}
_REFUSED_CONFIGS = [
    ({"bogus": 1}, "unknown config keys: ['bogus']"),
    ({"p": -1}, "p must be finite and > 0"),
    ({"grid_sizes": 0}, "grid_sizes entry 0 is rejected"),
    (None, "missing.cfg"),
    ({"n": 3}, "box must have one (lo, hi) pair per dimension, got 2 for n=3"),
    ({"n": 3, "box": [-2, 2, -2, 2, -2, 2]}, "symbol family 'default' is two-dimensional, got n=3"),
    ({"ell": 3}, "ell must lie in 1..n"),
    ({"box": [1, -1, -2, 2]}, "box pairs must satisfy lo < hi"),
    ({"family": "nosuch"}, "family must be one of"),
    ({"t_min": 0.0}, "t_min must be finite and > 0"),
    ({"t_max": -1.0}, "t_max must be finite and > 0"),
    ({"t_per_decade": 0}, "t_per_decade must be >= 1"),
    ({"shift_per_decade": 0}, "shift_per_decade must be >= 1"),
    ({"shift_angles": 0}, "shift_angles must be >= 1"),
    ({"witness_A": 0.0}, "witness_A must be finite and > 0"),
    ({"num_lattice_shifts": 0}, "num_lattice_shifts must be >= 1"),
    ({"k_min": 3}, "k_min must be <= stat_k_max"),
    ({"stat_k_max": 1.5}, "stat_k_max must be an int"),
    ({"ratio_spread_max": -1.0}, "ratio_spread_max must be finite and > 0"),
    ({"ratio_drift_max": 0.0}, "ratio_drift_max must be finite and > 0"),
    ({"divergence_growth_min": -2.0}, "divergence_growth_min must be finite and > 0"),
    ({"audit_C_energy": 0.0}, "audit_C_energy must be finite and > 0"),
    ({"audit_C_nwo": -1.0}, "audit_C_nwo must be finite and > 0"),
    ({"audit_C_tail": 0.0}, "audit_C_tail must be finite and > 0"),
    ({"audit_C_double": 0.0}, "audit_C_double must be finite and > 0"),
    ({"russo_slack": 0.0}, "russo_slack must be finite and > 0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"out_dir": 5}, "out_dir must be a path, got 5"),
    ({"out_dir": "file/o", **_SMOKE_KV}, "file/o"),
]


def test_refused_configs_walk_every_field():
    walked = {name for entries, _ in _REFUSED_CONFIGS for name in entries or ()}
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= walked


@pytest.mark.parametrize("entries, named", _REFUSED_CONFIGS)
def test_cli_refuses_config_input_on_one_line_with_exit_2(entries, named, tmp_path, capsys):
    # exit 1 is a FAIL verdict; refused input exits 2 and names the field,
    # the file or the path, with no traceback and no output directory
    path = tmp_path / "missing.cfg"
    (tmp_path / "file").write_text("")
    argv = ["ratio-study", "--config", str(path)]
    if entries is not None:
        if isinstance(entries.get("out_dir"), str):
            entries = {**entries, "out_dir": str(tmp_path / entries["out_dir"])}
        write_kv_file(path, entries)
    if "out_dir" not in (entries or {}):
        argv += ["--out", str(tmp_path / "o")]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("nrlab ratio-study: error: ") and named in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["divergence-study", "--grid", "32"], "divergence study needs at least two grid_sizes"),
        (["lower-audit", "--p", "4", "--grid", "8"], "lower-bound audit needs at least two generations"),
        (["upper-audit", "--p", "2", "--grid", "16"], "upper-bound audit needs p > max(n, 2)"),
        (["ratio-study", "--p", "2", "--grid", "16"], "ratio study needs p > n"),
        (["verify", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["ratio-study", "--n", "3"], "got 2 for n=3"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_refuses_study_preconditions_on_one_line_with_exit_2(argv, named, tmp_path, capsys):
    # a study precondition is refused input too: exit 2, not the exit 1
    # of a FAIL verdict, on one line and before anything is written
    assert cli_main(argv + ["--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"nrlab {argv[0]}: error: ")
    assert named in captured.err and captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()
