"""The benchmark's workloads: argv lists for ``nrlab.cli.main``.

One operation is one study invocation.  Every workload uses the box
(-2, 2)^2 and the study defaults except where noted.  The grids are
smaller than the acceptance criteria's so that one pass fits the run
length (see README.md for the sizes and why).
"""

from __future__ import annotations

WORKLOADS = {
    # ell = 1 < n: the commutator is exactly symmetric, the case a
    # symmetric-spectrum path would target.  The only workload that runs
    # the Besov routes.  Dense SVD at M = 1600 is most of the time.
    "ratio-l1": [
        ["ratio-study", "--p", "4", "--ell", "1", "--grid", "32,40"],
    ],
    # ell = n = 2: the matrix is not symmetric, so a symmetric-only path
    # is bypassed.  Adds the dyadic oscillation statistic
    # (box_midpoint_mean micro-quadrature) on three lattice shifts.
    "divergence-l2": [
        [
            "divergence-study", "--ell", "2", "--family", "divergence", "--grid", "12,24,40",
            "--config", "perfbench/configs/divergence-l2.cfg",
        ],
    ],
    # acceptance criteria 07 and 08 at their own size: dyadic cube scans,
    # the witness-ball statistics and many small riesz_kernel calls; the
    # SVDs are small (M = 1024).
    "audits-n32": [
        ["lower-audit", "--p", "4", "--grid", "32"],
        ["upper-audit", "--p", "4", "--grid", "32"],
    ],
}
