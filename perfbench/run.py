"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload serve --seed 7 --seconds 15 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file). ``--workload all`` runs every workload from one process. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds on the same inputs, and
reports the per-layer metrics per traced round plus the tracing
overhead between them. The last line of standard output is one JSON
object::

    {"correct": true, "attempted": 2130, "failed": 0, "metrics": {...}}

The full result -- provenance, every figure, the per-layer summary --
is written under ``perfbench/out/``, with the Chrome trace of a traced
run beside it. The exit code is 1 when an output oracle fails and 2
when the program's source is missing.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before anything imports numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
BLAS_BEFORE = {name: os.environ.get(name) for name in BLAS_VARS}
for _name in BLAS_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPEATS = 3

#: End-to-end metrics, reported by untraced runs: name -> unit.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s"}


def per_layer_metrics():
    """The per-layer metrics of a traced run's result line: name -> unit.

    Every value is per traced round, and every round runs the same
    inputs, so a count reads the same however many rounds fit in the
    budget; ``.self_s`` is in reference seconds (:mod:`speed`).
    """
    from tracing import LAYER_METRICS

    out = {name: unit for metrics in LAYER_METRICS.values()
           for name, unit in metrics}
    out["tracing.overhead_pct"] = "%"
    return out


# --- provenance ----------------------------------------------------------

def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over ``src/`` file paths and bytes (commit-free identity)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, sizes) -> dict:
    import numpy as np

    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    getaffinity = getattr(os, "sched_getaffinity", None)
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                           "openblas configuration")},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
        "blas_threads_before": BLAS_BEFORE,
        "affinity": sorted(getaffinity(0)) if getaffinity else None,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": sizes,
    }


# --- measuring -------------------------------------------------------------

def one_round(workload, meter, tracer=None):
    """One round of ``workload``, with its wall time and the machine's
    speed during it."""
    t0 = time.perf_counter_ns()
    if tracer is not None:
        tracer.begin("bench.round")
    try:
        done = workload.run_round()
    finally:
        if tracer is not None:
            tracer.end()
    t1 = time.perf_counter_ns()
    done.wall = (t1 - t0) / 1e9
    done.speed = meter.speed(t0, t1)
    return done


def _another_fits(start: float, count: int, budget: float) -> bool:
    """Whether one more of ``count`` rounds (or pairs) begun at ``start``,
    as long as their mean so far, still ends within ``budget`` seconds."""
    elapsed = time.perf_counter() - start
    return elapsed * (count + 1) / count <= budget


def measure(workload, budget: float, meter):
    """Rounds until the next would end past ``budget``; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or _another_fits(start, len(rounds), budget):
        rounds.append(one_round(workload, meter))
    return rounds


def measure_traced(workload, budget: float, meter, probes):
    """Pairs of rounds, untraced then traced; at least one pair.

    Every round runs the same inputs, and alternating puts the two kinds
    on the same stretches of machine speed, so their difference is the
    tracing overhead. Each traced round has a tracer of its own; only the
    first keeps raw spans for the Chrome trace. Returns (untraced rounds,
    [(traced round, its tracer)]).
    """
    from tracing import Tracer

    plain, traced = [], []
    start = time.perf_counter()
    while not traced or _another_fits(start, len(traced), budget):
        plain.append(one_round(workload, meter))
        tracer = Tracer() if not traced else Tracer(max_events=0)
        with tracer.installed(probes):
            traced.append((one_round(workload, meter, tracer), tracer))
    return plain, traced


def throughput(rounds, wall=False) -> float:
    """Items per reference second (per wall second with ``wall``)."""
    return sum(r.items for r in rounds) / sum(
        r.seconds * (1.0 if wall else r.speed) for r in rounds)


def per_round(traced) -> dict:
    """Span aggregates and counters as means over the traced rounds.

    ``self_s`` and ``total_s`` are wall seconds; ``self_ref_s`` is self
    time in reference seconds, each round scaled by its own speed.
    """
    spans, counters = {}, {}
    for done, tracer in traced:
        for name, (calls, total, own) in tracer.stats.items():
            agg = spans.setdefault(name, [0, 0, 0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
            agg[3] += own * done.speed
        for name, value in {**tracer.counters, **done.counters}.items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    n = len(traced)
    return {
        "spans": {name: {"calls": calls / n, "total_s": total / 1e9 / n,
                         "self_s": own / 1e9 / n, "self_ref_s": ref / 1e9 / n}
                  for name, (calls, total, own, ref) in sorted(spans.items())},
        "counters": {name: value if name.endswith("_max") else value / n
                     for name, value in sorted(counters.items())},
    }


def layer_values(aggregates: dict, percentiles: dict) -> dict:
    """Every per-layer metric of ``LAYER_METRICS``, per traced round."""
    from tracing import LAYER_METRICS

    spans, counters = aggregates["spans"], aggregates["counters"]
    values = {}
    for metrics in LAYER_METRICS.values():
        for name, _ in metrics:
            span, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = spans.get(span, {}).get("calls", 0)
            elif field == "self_s":
                values[name] = spans.get(span, {}).get("self_ref_s", 0.0)
            elif name in percentiles:
                values[name] = percentiles[name]
            else:
                values[name] = counters.get(name, 0)
    return values


def in_flight(counters: dict, ticks: float) -> dict:
    """Jobs in flight per live kernel tick, from the advance_tick probe."""
    def per_tick(name: str) -> float:
        return counters.get(name, 0) / ticks if ticks else 0.0

    return {"running_mean": per_tick("sim.running_job_ticks"),
            "running_max": counters.get("sim.running_jobs_max", 0),
            "pending_mean": per_tick("sim.pending_job_ticks"),
            "vector_tick_share": per_tick("sim.vector_ticks")}


def traced_result(name: str, args, workload, meter, probes) -> tuple:
    """(metrics, figures, all rounds, extra result fields) of a traced run."""
    from tracing import nearest_rank

    plain, traced = measure_traced(workload, args.seconds, meter, probes)
    rounds = [done for done, _ in traced]
    aggregates = per_round(traced)
    figures = workload.report(plain)
    traced_figures = workload.report(rounds)
    checkpoints = [ns for _, tracer in traced
                   for ns in tracer.samples["serve.checkpoint"]]
    layers = layer_values(aggregates, {
        "serve.decide.p50_us": traced_figures.get("serve_decide_p50_us", 0),
        "serve.decide.p99_us": traced_figures.get("serve_decide_p99_us", 0),
        "serve.checkpoint.p99_ms": nearest_rank(checkpoints, 99) / 1e6,
    })
    overhead = throughput(plain) / throughput(rounds) - 1.0
    first = traced[0][1]
    summary = {
        "rounds": len(traced),
        "wall_s": statistics.mean(r.wall for r in rounds),
        "wall_ref_s": statistics.mean(r.wall * r.speed for r in rounds),
        "self_sum_s": sum(s["self_s"] for s in aggregates["spans"].values()),
        **aggregates,
        "layers": layers,
        "kernel_in_flight": in_flight(
            aggregates["counters"],
            aggregates["spans"].get("sim.advance_tick", {}).get("calls", 0)),
        "tracing_overhead_pct": 100 * overhead,
        "untraced_throughput": throughput(plain),
        "traced_throughput": throughput(rounds),
        "events_kept": len(first.events),
        "events_dropped": first.dropped,
    }
    trace_path = OUT / f"{name}-seed{args.seed}.trace.json"
    first.write_chrome(str(trace_path), {"workload": name, "seed": args.seed})
    values = {**layers, "tracing.overhead_pct": 100.0 * overhead}
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in per_layer_metrics().items()}
    extra = {"trace_file": str(trace_path.relative_to(ROOT)),
             "layer_summary": summary}
    return metrics, figures, plain + rounds, extra


def run_workload(name: str, args, scratch: str) -> dict:
    from speed import Speedometer

    with Speedometer() as meter:
        result = _run_workload(name, args, scratch, meter)
    result["figures"]["speedometer"] = meter.summary()
    return result


def _run_workload(name: str, args, scratch: str, meter) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](args.seed, args.size, scratch)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        workload.setup()
        t1 = time.perf_counter_ns()
        setup_times.append((t1 - t0) / 1e9 * meter.speed(t0, t1))

    result = {"workload": name, "item": workload.item}
    if args.trace:
        from tracing import PROBES

        probes = [p for p in PROBES
                  if p[0] != "core.validate" or name == "train"]
        metrics, figures, rounds, extra = traced_result(
            name, args, workload, meter, probes)
        result.update(extra)
    else:
        rounds = measure(workload, args.seconds, meter)
        figures = workload.report(rounds)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput": throughput(rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}

    late = workload.check()
    failures = [m for r in rounds for m in r.messages] + late
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds) + len(late)
    figures.update(error_rate=failed / attempted, rounds=len(rounds),
                   measured_s=sum(r.wall for r in rounds),
                   setup_times_s=setup_times,
                   throughput_wall=throughput(rounds, wall=True),
                   round_speeds=[r.speed for r in rounds])
    result.update(
        correct=not failures, attempted=attempted,
        failed=failed, failures=failures, metrics=metrics, figures=figures,
        provenance=provenance(args, workload.sizes))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sweep", "serve", "archive", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    names = (("train", "sweep", "serve", "archive") if args.workload == "all"
             else (args.workload,))
    results = []
    for name in names:
        scratch.mkdir()
        try:
            results.append(run_workload(name, args, str(scratch)))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    for res in results:
        for failure in res["failures"]:
            print(f"ORACLE FAIL {failure}")
        for metric, m in res["metrics"].items():
            print(f"{res['workload']}  {metric} = {m['value']:.6g} {m['unit']}")
        for key, value in res["figures"].items():
            if isinstance(value, float):
                print(f"{res['workload']}  {key} = {value:.6g}")
    suffix = "trace" if args.trace else "e2e"
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-{suffix}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(results if len(results) > 1 else results[0], fh, indent=1,
                  sort_keys=True, default=str)
    print(f"result -> {out_path.relative_to(ROOT)}")

    if len(results) == 1:
        res = results[0]
        metrics = res["metrics"]
    else:
        metrics = {f"{res['workload']}.{k}": v
                   for res in results for k, v in res["metrics"].items()}
    correct = all(res["correct"] for res in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
