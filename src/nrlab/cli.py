"""Command-line entry point.

Subcommands map one-to-one onto the harness studies plus two utilities
(single-point kernel evaluation, matrix export).  Exit code is 0 iff
every asserted inequality in the invoked run passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .discretize import assemble_commutator, assemble_riesz, export_matrix, make_grid
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


def _add_common(sub):
    sub.add_argument("--config", type=str, default=None, help="key=value config file")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--ell", type=int, default=None)
    sub.add_argument("--grid", type=str, default=None, help="grid ladder, e.g. 16,32,64")
    sub.add_argument("--seed", type=int, default=None)


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name, key in (("n", "n"), ("p", "p"), ("ell", "ell"), ("seed", "seed"), ("out", "out_dir")):
        val = getattr(args, name, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "grid", None) is not None:
        overrides["grid_sizes"] = tuple(int(v) for v in str(args.grid).split(","))
    if getattr(args, "family", None) is not None:
        overrides["family"] = args.family
    return cfg.updated(**overrides)


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


def _parse_point(text: str, n: int) -> np.ndarray:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != n:
        raise SystemExit(f"expected {n} coordinates, got {len(vals)}")
    return np.asarray(vals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nrlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("verify", "ratio-study", "divergence-study", "lower-audit", "upper-audit"):
        sub = subs.add_parser(name)
        _add_common(sub)
        sub.add_argument("--family", type=str, default=None, help="symbol family name")

    ker = subs.add_parser("kernel-eval", help="evaluate kernels at one point pair")
    _add_common(ker)
    ker.add_argument("--x", type=str, required=True, help="comma-separated coordinates")
    ker.add_argument("--y", type=str, required=True)
    ker.add_argument("--t", type=float, default=None, help="also print heat kernels at this t")

    exp = subs.add_parser("export-matrix", help="assemble a commutator matrix and export it")
    _add_common(exp)
    exp.add_argument("--symbol", type=str, default="bump_a35")
    exp.add_argument("--family", type=str, default=None)

    args = parser.parse_args(argv)
    cfg = _build_config(args)

    if args.command == "verify":
        return _emit(verify_suite(cfg), cfg)
    if args.command == "ratio-study":
        return _emit(ratio_study(cfg), cfg)
    if args.command == "divergence-study":
        if args.p is None and cfg.p != cfg.n:
            cfg = cfg.updated(p=float(cfg.n))
        return _emit(divergence_study(cfg), cfg)
    if args.command == "lower-audit":
        return _emit(lower_bound_audit(cfg), cfg)
    if args.command == "upper-audit":
        return _emit(upper_bound_audit(cfg), cfg)

    if args.command == "kernel-eval":
        x = _parse_point(args.x, cfg.n)
        y = _parse_point(args.y, cfg.n)
        params = KernelParams(cfg.n, cfg.ell)
        print(f"riesz[ell={cfg.ell}](x, y) = {riesz_kernel(params, x, y, singular='zero')!r}")
        if args.t is not None:
            print(f"heat_full[t={args.t}](x, y) = {heat_kernel_full(args.t, x, y)!r}")
            print(f"heat_neumann[t={args.t}](x, y) = {heat_kernel_neumann(args.t, x, y)!r}")
        return 0

    if args.command == "export-matrix":
        family = symbol_family(cfg.family, cfg.n)
        match = [s for s in family if s.name == args.symbol]
        if not match:
            raise SystemExit(f"symbol {args.symbol!r} not in family {cfg.family!r}")
        grid = make_grid(cfg.n, cfg.box, cfg.grid_sizes[0])
        op = assemble_commutator(match[0], assemble_riesz(cfg.ell, grid))
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"matrix_{args.symbol}_N{cfg.grid_sizes[0]}.bin"
        export_matrix(op, path)
        print(f"wrote {path} and {path}.cfg")
        return 0

    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
