"""nrlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload ratio-l1 --seed 1 --seconds 36 --trace 0

Run from the repository root.  Each run starts fresh Python processes
with the BLAS thread cap set to the number of usable cores: several that
only set up (for ``setup_s``), then one worker that runs the workload's
study invocations through ``nrlab.cli.main`` for ``--seconds`` and checks
every output against the reference recorded at the seed commit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one plain
and one traced pass and prints the per-layer metrics.  The last line of
standard output is one JSON object; a full record, machine included, is
written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import COMPUTED, PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
SETUP_PROBES = 9
# every run ends within this, set-up included
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    env.update({var: cap for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def start_worker(argv: list, env: dict):
    """Start a worker and wait for its ready line; returns (process, setup seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline().strip()
    setup_s = time.perf_counter() - t0
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (said {line!r}, exit {proc.returncode})")
    return proc, setup_s


def finish(proc, timeout: float):
    """Wait for a worker's output; on timeout stop it and return None."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.perf_counter()

    if not (ROOT / "src" / "nrlab" / "__init__.py").is_file():
        print(f"error: no nrlab sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    env = child_env()
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    # An unmeasured first start writes the bytecode cache and warms the
    # file cache, as an installed package would have them.
    setups = []
    for i in range(SETUP_PROBES + 1):
        proc, setup_s = start_worker([*worker_argv, "--probe"], env)
        finish(proc, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        if i:
            setups.append(setup_s)

    proc, setup_s = start_worker([*worker_argv, "--trace", str(args.trace)], env)
    setups.append(setup_s)
    out = finish(proc, timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - begin)))
    if out is None:
        print(f"error: {args.workload} did not finish within {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    walls = [p["wall"] for p in passes]
    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items() if name in layers}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kib"] / 1024.0, "unit": "MiB"},
        }

    record = {
        "workload": args.workload,
        "operations": [" ".join(argv) for argv in WORKLOADS[args.workload]],
        "seed": args.seed,
        "deterministic": True,
        "note": "the studies draw no random numbers; the seed is passed through nrlab --seed",
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": result["machine"],
        "setup_s": {"samples": setups, "quartiles": quartiles(setups)},
        "wall_s": {"samples": walls, "quartiles": quartiles(walls), "count": len(walls)},
        "cpu_s": [p["cpu"] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "missing_metrics": result["missing"],
        "computed_metrics": sorted(COMPUTED & set(metrics)),
        "spans_file": result.get("spans_file"),
        "metrics": metrics,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} (seed {args.seed}): {len(walls)} passes of {record['operations']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (" (computed)" if name in COMPUTED else ""))
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name in result["missing"]:
        print(f"  {name}: missing (traced function or its result changed shape)")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
