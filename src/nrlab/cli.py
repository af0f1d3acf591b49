"""Command-line entry point.

Subcommands map one-to-one onto the harness studies plus two utilities
(single-point kernel evaluation, matrix export).  Exit code is 0 iff
every asserted inequality in the invoked run passed, 1 on a FAIL verdict
and 2 on refused input (a bad flag, config or study precondition), on
one stderr line; a traceback is a bug.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .discretize import assemble_commutator, export_matrix, make_grid
from .harness import (
    ExperimentConfig,
    divergence_study,
    lower_bound_audit,
    ratio_study,
    symbol_family,
    upper_bound_audit,
    verify_suite,
    write_invariants_csv,
    write_rows_csv,
    write_spectrum_csv,
)
from .kernels import KernelParams, heat_kernel_full, heat_kernel_neumann, riesz_kernel


def _grid_ladder(text: str) -> tuple:
    """The --grid value, e.g. 16,32,64, as a tuple of ints."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _point(text: str) -> np.ndarray:
    """The --x or --y value, e.g. 0.3,0.7, as an array of finite numbers."""
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = [math.nan]
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return np.asarray(vals)


def _heat_time(text: str) -> float:
    """The --t value, a finite number > 0."""
    try:
        t = float(text)
    except ValueError:
        t = math.nan
    if not (math.isfinite(t) and t > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return t


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="key=value config file")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--ell", type=int, default=None)
    sub.add_argument("--grid", type=_grid_ladder, default=None, help="grid ladder, e.g. 16,32,64")
    sub.add_argument("--seed", type=int, default=None)


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    renamed = {"out": "out_dir", "grid": "grid_sizes"}
    for name in ("n", "p", "ell", "seed", "out", "grid", "family"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[renamed.get(name, name)] = val
    return replace(cfg, **overrides)


def _emit(report, cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_file(out / "config.cfg")
    if report.experiment == "verify":
        write_invariants_csv(out / "invariants.csv", report)
    else:
        write_rows_csv(out / "ratios.csv", report.rows)
    for sid, (spec, summary) in sorted(report.spectra.items()):
        write_spectrum_csv(out / f"spectrum_{sid}.csv", spec, summary)
    for key, val in sorted(report.summary.items()):
        print(f"{report.experiment}: {key} = {val}")
    print(f"{report.experiment}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nrlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("verify", "ratio-study", "divergence-study", "lower-audit", "upper-audit"):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.add_argument("--family", type=str, default=None, help="symbol family name")

    ker = subs.add_parser("kernel-eval", help="evaluate kernels at one point pair")
    _add_common(ker)
    ker.add_argument("--x", type=_point, required=True, help="comma-separated coordinates")
    ker.add_argument("--y", type=_point, required=True)
    ker.add_argument("--t", type=_heat_time, default=None, help="also print heat kernels at this t")

    exp = subs.add_parser("export-matrix", help="assemble a commutator matrix and export it")
    _add_common(exp)
    exp.add_argument("--symbol", type=str, default="bump_a35")
    exp.add_argument("--family", type=str, default=None)

    args = parser.parse_args(argv)
    # refused input, here or in a study's preconditions, leaves on one
    # stderr line with exit 2, as argparse does; exit 1 is a FAIL verdict
    try:
        cfg = _build_config(args)
        if args.command == "kernel-eval":
            x, y = args.x, args.y
            for flag, point in (("--x", x), ("--y", y)):
                if len(point) != cfg.n:
                    raise ValueError(f"argument {flag}: expected {cfg.n} coordinates, got {len(point)}")
            params = KernelParams(cfg.n, cfg.ell)
            print(f"riesz[ell={cfg.ell}](x, y) = {float(riesz_kernel(params, x, y, singular='zero'))!r}")
            if args.t is not None:
                print(f"heat_full[t={args.t}](x, y) = {float(heat_kernel_full(args.t, x, y))!r}")
                print(f"heat_neumann[t={args.t}](x, y) = {float(heat_kernel_neumann(args.t, x, y))!r}")
            return 0
        if args.command == "export-matrix":
            match = [s for s in symbol_family(cfg.family, cfg.n) if s.name == args.symbol]
            if not match:
                raise ValueError(f"--symbol {args.symbol!r} not in family {cfg.family!r}")
            grid = make_grid(cfg.n, cfg.box, cfg.grid_sizes[0])
            op = assemble_commutator(match[0], cfg.ell, grid)
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"matrix_{args.symbol}_N{cfg.grid_sizes[0]}.bin"
            export_matrix(op, path)
            print(f"wrote {path} and {path}.cfg")
            return 0
        if args.command == "divergence-study" and args.p is None and cfg.p != cfg.n:
            cfg = replace(cfg, p=float(cfg.n))
        # the studies are looked up when the command runs, so a rebinding
        # of these module names (the benchmark's layer trace) is called
        study = {
            "verify": verify_suite,
            "ratio-study": ratio_study,
            "divergence-study": divergence_study,
            "lower-audit": lower_bound_audit,
            "upper-audit": upper_bound_audit,
        }[args.command]
        return _emit(study(cfg), cfg)
    except (ValueError, OSError) as exc:
        print(f"nrlab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
