"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root at the commit whose behaviour is the
reference (the seed commit), on the benchmark's machine.  Writes
perfbench/reference/<workload>.json.gz: per operation the exit code, the
verdict, the printed summary statistics, ratios.csv and every spectrum.
"""

from __future__ import annotations

import sys

from run import child_env, start_worker
from workloads import WORKLOADS


def main(names) -> int:
    env = child_env()
    for name in names or sorted(WORKLOADS):
        proc, _ = start_worker(["--workload", name, "--seed", "0", "--seconds", "0", "--record"], env)
        out, _ = proc.communicate()
        print(f"{name}:\n{out}", end="")
        if proc.returncode != 0:
            return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
