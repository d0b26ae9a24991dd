"""Benchmark inputs that ``perfbench`` and the CI smoke steps share.

``perfbench/workloads.py`` loads this file by path for its ``archive``
workload (the synthetic SWF archive and the large cluster it is
evaluated on), and ``scripts/ci_smoke.sh`` imports
:func:`write_synthetic_swf` for its ``stream`` and ``queue`` steps.
``tests/integration/test_bench_inputs.py`` freezes what both functions
return: a change to either would make ``archive`` results incomparable
across commits.
"""

import numpy as np


def write_synthetic_swf(path, n_rows: int = 40_000, seed: int = 0) -> None:
    """Generate a submit-time-sorted SWF log of ``n_rows`` jobs.

    Deterministic given ``seed``; what the archive-scale ingest bench
    and the CI memory-cap smoke run against (the bundled fixture is only
    80 rows — far too small to exercise bounded-memory ingestion).
    """
    rng = np.random.default_rng(seed)
    submit = np.cumsum(rng.exponential(30.0, size=n_rows)).astype(int)
    run = np.maximum(1, rng.lognormal(5.5, 1.2, size=n_rows)).astype(int)
    procs = 2 ** rng.integers(0, 6, size=n_rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("; Version: 2.2\n; Computer: synthetic bench archive\n")
        fh.write(f"; MaxJobs: {n_rows}\n; MaxProcs: 64\n")
        for i in range(n_rows):
            fh.write(f"{i + 1} {submit[i]} 10 {run[i]} {procs[i]} -1 -1 "
                     f"{procs[i]} {run[i] * 2} -1 1 1 1 -1 1 1 -1 -1\n")


def large_cluster_platforms(scale: int = 16):
    """A two-platform cluster of ``128 * scale`` units (96/32 split)."""
    from repro.sim import Platform

    return [Platform("cpu", 96 * scale, 1.0), Platform("gpu", 32 * scale, 2.0)]
