"""Check that reference-second scaling passes a program slowdown through.

    python3 perfbench/check_speed.py --workload sweep --seed 1 --seconds 60

:mod:`speed` scales each round's seconds by the machine's speed, which it
samples by timing a calibration kernel in the program's own process. If
a slower program also slowed the kernel, the scaling would hide part of
the slowdown. This check makes the program slower by a known amount and
measures how much of it the ``throughput`` metric shows.

It runs pairs of rounds: a plain one, and one in which a probe on
``run_cell`` (the ``harness.cell`` span) adds a fixed amount of
interpreter work to every call, sized to add about 40% to a round (large
beside the round-to-round noise of a shared machine); the
order within a pair alternates, so a drift in machine speed cancels.
The injected share ``s`` is the time spent in that work over the
round's timed seconds; a metric that passes the slowdown through
undamped reads ``1 - s`` of its plain value. A pair's damping is the
observed fall of its reference-second throughput over ``s`` (1 when
undamped; the same figure from wall seconds is reported beside it). The
last line is a JSON object with the medians over pairs; the exit code
is 1 when the median damping is outside ``[0.75, 1.25]``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time

import run  # pins BLAS before numpy loads

SHARE = 0.4
TOLERANCE = 0.25


def burn(n: int) -> int:
    """Interpreter work unlike the calibration kernel's."""
    acc = 0
    for i in range(n):
        acc += len(str(i * 7919))
    return acc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "archive"),
                        default="sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(run.SRC)]

    from speed import Speedometer
    from tracing import Tracer
    from workloads import WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.OUT)
    workload = WORKLOADS[args.workload](args.seed, "full", scratch)
    workload.setup()
    per_call = [0]

    def inject(tracer, result, call_args):
        t0 = time.perf_counter_ns()
        burn(per_call[0])
        tracer.count("injected_ns", time.perf_counter_ns() - t0)

    probes = [("harness.cell", "repro.harness.parallel", "run_cell", inject)]

    def injected_round(meter):
        tracer = Tracer(max_events=0)
        with tracer.installed(probes):
            done = run.one_round(workload, meter, tracer)
        done.calls = tracer.stats["harness.cell"][0]
        return done, tracer.counters["injected_ns"] / 1e9

    pairs = []
    with Speedometer() as meter:
        warm, _ = injected_round(meter)
        t0 = time.perf_counter_ns()
        burn(100_000)
        ns_per_unit = (time.perf_counter_ns() - t0) / 100_000
        per_call[0] = int(SHARE * warm.seconds * 1e9 / warm.calls
                          / ns_per_unit)
        start = time.perf_counter()
        while len(pairs) < 5 or time.perf_counter() - start < args.seconds:
            if len(pairs) % 2:
                injected, spent = injected_round(meter)
                plain = run.one_round(workload, meter)
            else:
                plain = run.one_round(workload, meter)
                injected, spent = injected_round(meter)
            pairs.append((plain, injected, spent))
    failures = [m for p, i, _ in pairs for m in p.messages + i.messages]
    failures += workload.check()
    shutil.rmtree(scratch, ignore_errors=True)

    shares, damping, wall_damping = [], [], []
    for plain, injected, spent in pairs:
        share = spent / injected.seconds
        ref = run.throughput([injected]) / run.throughput([plain])
        wall = (run.throughput([injected], wall=True)
                / run.throughput([plain], wall=True))
        shares.append(share)
        damping.append((1.0 - ref) / share)
        wall_damping.append((1.0 - wall) / share)
    result = {"workload": args.workload, "pairs": len(pairs),
              "injected_share": statistics.median(shares),
              "damping": statistics.median(damping),
              "wall_damping": statistics.median(wall_damping),
              "damping_quartiles": statistics.quantiles(damping, n=4),
              "wall_damping_quartiles": statistics.quantiles(wall_damping, n=4),
              "oracle_failures": failures}
    print(json.dumps(result))
    ok = abs(result["damping"] - 1.0) <= TOLERANCE and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
