"""One benchmark process: set up, run a workload's study invocations in
process through ``nrlab.cli.main``, and check every output.

Started by run.py, which sets the BLAS thread cap and PYTHONPATH.  Prints
``ready`` once set-up is done (with ``--probe`` it exits there), then one
JSON line with the timings, counts and per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "work"
RESULTS = BENCH / "results"


def set_up():
    """Interpreter start to ready: import nrlab and warm up BLAS."""
    import numpy as np

    import nrlab
    import nrlab.cli  # noqa: F401  (the entry point the workloads call)

    expected = (ROOT / "src" / "nrlab").resolve()
    if Path(nrlab.__file__).resolve().parent != expected:
        raise SystemExit(f"nrlab imported from {nrlab.__file__}, expected {expected}")
    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.svd(a @ a, compute_uv=False)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_op(argv: list, seed: int, out: Path) -> dict:
    """One study invocation, timed, with its printed output captured."""
    cli = importlib.import_module("nrlab.cli")
    shutil.rmtree(out, ignore_errors=True)
    buf = io.StringIO()
    rc, error = None, None
    c0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            # looked up at call time so a traced pass calls the wrapper
            rc = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=3)
    t1, c1 = time.perf_counter(), _cpu_s()
    return {"rc": rc, "stdout": buf.getvalue(), "error": error, "wall": t1 - t0, "cpu": c1 - c0}


def run_pass(workload: str, ops: list, reference: dict, seed: int, tracer=None) -> dict:
    """Run every operation of a workload once; time and check each."""
    from check import compare, parse_outputs

    wall = cpu = 0.0
    failed = 0
    problems = []
    for i, argv in enumerate(ops):
        out = WORK / workload / f"op{i}"
        if tracer is not None:
            tracer.op = i
        op = run_op(argv, seed, out)
        wall += op["wall"]
        cpu += op["cpu"]
        if op["error"] is None:
            found = compare(reference["ops"][i], parse_outputs(op["rc"], op["stdout"], out))
        else:
            found = [f"raised: {op['error']}"]
        if found:
            failed += 1
            problems += [f"{' '.join(argv)}: {p}" for p in found]
    return {"wall": wall, "cpu": cpu, "attempted": len(ops), "failed": failed, "problems": problems}


def record_reference(workload: str, ops: list, seed: int):
    from check import parse_outputs, save_reference

    recorded = []
    for i, argv in enumerate(ops):
        out = WORK / workload / f"op{i}"
        op = run_op(argv, seed, out)
        if op["error"] is not None:
            raise SystemExit(f"{' '.join(argv)} raised\n{op['error']}")
        recorded.append({"argv": argv, **parse_outputs(op["rc"], op["stdout"], out)})
        print(f"{' '.join(argv)}: exit {op['rc']}, {recorded[-1]['verdict']}, {op['wall']:.2f} s", flush=True)
    path = BENCH / "reference" / f"{workload}.json.gz"
    save_reference(path, {"workload": workload, "machine": machine(), "ops": recorded})


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "memory_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    parser.add_argument("--record", action="store_true", help="run once and write the reference")
    args = parser.parse_args()

    set_up()
    print("ready", flush=True)
    if args.probe:
        return 0
    start = time.perf_counter()

    from check import load_reference
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    if args.record:
        record_reference(args.workload, ops, args.seed)
        return 0
    reference = load_reference(BENCH / "reference" / f"{args.workload}.json.gz")
    result = {"passes": [], "layers": {}, "missing": []}

    if args.trace:
        from layertrace import WRAP_POINTS, Tracer, layer_metrics

        plain = run_pass(args.workload, ops, reference, args.seed)
        tracer = Tracer()
        with tracer.installed(WRAP_POINTS):
            traced = run_pass(args.workload, ops, reference, args.seed, tracer)
        result["passes"] = [plain, traced]
        layers, missing = layer_metrics(tracer)
        accounted = sum(self_s for _, self_s in tracer.self_times().values())
        layers.update(
            {
                "proc.cpu_s": plain["cpu"],
                "proc.cpu_per_wall": plain["cpu"] / plain["wall"],
                "trace.wall_s": traced["wall"],
                "trace.overhead_s": traced["wall"] - plain["wall"],
                "trace.unaccounted_s": traced["wall"] - accounted,
            }
        )
        result["layers"], result["missing"] = layers, missing
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        # Start a pass only if it should end within the run length; the
        # first pass always runs.
        while True:
            result["passes"].append(run_pass(args.workload, ops, reference, args.seed))
            longest = max(p["wall"] for p in result["passes"])
            if time.perf_counter() - start + longest > args.seconds:
                break

    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
