"""Generic scheduler-comparison sweeps over paired traces.

Each sweep is one :func:`~repro.harness.parallel.evaluate_grid` call —
one cell per (scenario, scheduler, trace seed), sharded over a process
pool (``workers > 1``) and/or served from a persistent
:class:`~repro.harness.cache.ResultCache`. Results are merged in cell
order, so the aggregated rows are byte-identical regardless of worker
count or cache state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.harness.cache import ResultCache
from repro.harness.parallel import evaluate_grid
from repro.harness.results import Row, aggregate_rows
from repro.harness.scenario import Scenario

__all__ = ["sweep_schedulers", "evaluate_windowed", "sweep_windowed"]

SchedulerFactory = Callable[[Scenario], object]


def sweep_schedulers(
    scenarios: Dict[str, Scenario],
    schedulers: Dict[str, SchedulerFactory],
    n_traces: int = 3,
    base_seed: int = 1000,
    max_ticks: Optional[int] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
) -> List[Row]:
    """Evaluate every scheduler on every scenario over paired traces.

    ``schedulers`` maps name -> factory called per evaluation cell (so
    trained policies can be injected as constants and heuristics
    re-instantiated; the per-cell instantiation is what makes cells
    independent and therefore shardable). Returns aggregated rows: one
    per (scenario, scheduler) with mean/std of the key metrics over the
    trace seeds.

    ``workers > 1`` shards the cells over a spawn-safe process pool —
    factories must then be picklable module-level callables (e.g.
    :class:`~repro.harness.parallel.BaselineFactory`). ``cache`` makes
    completed cells persistent: re-running a sweep recomputes only the
    cells whose inputs changed.

    Because the factory runs per cell, a scheduler that consumes RNG
    (the ``random`` baseline, stochastic DRL decoding) replays its
    stream from the seed on every trace instead of continuing it — that
    is what makes cells order-independent.
    """
    grid = evaluate_grid(scenarios, schedulers, n_traces=n_traces,
                         base_seed=base_seed, max_ticks=max_ticks,
                         workers=workers, cache=cache, backend=backend)
    raw: List[Row] = [
        {
            "scenario": scen_name,
            "scheduler": sched_name,
            "trace": i,
            "miss_rate": rep.miss_rate,
            "mean_slowdown": rep.mean_slowdown,
            "mean_tardiness": rep.mean_tardiness,
            "mean_utilization": rep.mean_utilization,
            "throughput": rep.throughput,
        }
        for (scen_name, sched_name), reports in grid.items()
        for i, rep in enumerate(reports)
    ]
    return aggregate_rows(
        raw,
        group_by=["scenario", "scheduler"],
        metrics=["miss_rate", "mean_slowdown", "mean_tardiness",
                 "mean_utilization", "throughput"],
    )


def evaluate_windowed(
    path: str,
    schedulers: Dict[str, SchedulerFactory],
    window_jobs: int,
    platforms=None,
    core=None,
    engine: str = "tick",
    max_ticks: Optional[int] = None,
    trace_seed: int = 1000,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
) -> Dict[str, "object"]:
    """Evaluate schedulers over a trace container in windowed segments.

    The container at ``path`` is split into contiguous
    :class:`~repro.harness.library.TraceWindowScenario` cells of at most
    ``window_jobs`` jobs (one streaming planning pass). The windows are
    the scenarios of one :func:`~repro.harness.parallel.evaluate_grid`
    call, so every (window, scheduler) pair is an independent cell
    streaming only its window, and peak memory is bounded by the window
    size however large the archive. Per-window
    :class:`~repro.sim.metrics.SegmentMetrics` are reduced in window
    order with :func:`~repro.sim.metrics.merge_segments` — an exact
    deterministic reduction, independent of worker count and cache
    state.

    Returns scheduler name -> merged
    :class:`~repro.sim.metrics.MetricsReport`.
    """
    from repro.harness.library import plan_trace_windows
    from repro.sim.metrics import merge_segments

    windows = {
        f"{path}[{w.window_index}/{w.n_windows}]": w
        for w in plan_trace_windows(path, window_jobs, platforms=platforms,
                                    core=core, max_ticks=max_ticks,
                                    engine=engine)
    }
    grid = evaluate_grid(windows, schedulers, n_traces=1,
                         base_seed=trace_seed, workers=workers, cache=cache,
                         backend=backend)
    return {
        sched_name: merge_segments([grid[(name, sched_name)][0]
                                    for name in windows])
        for sched_name in schedulers
    }


def sweep_windowed(
    path: str,
    schedulers: Dict[str, SchedulerFactory],
    window_jobs: int,
    scenario_name: Optional[str] = None,
    **kwargs,
) -> List[Row]:
    """Windowed sweep rows: one per scheduler, merged across windows.

    Thin row-shaping wrapper over :func:`evaluate_windowed` matching the
    ``sweep_schedulers`` row vocabulary, so the CLI table/JSON emitters
    work unchanged.
    """
    reports = evaluate_windowed(path, schedulers, window_jobs, **kwargs)
    name = scenario_name if scenario_name is not None else str(path)
    rows: List[Row] = []
    for sched_name, rep in reports.items():
        rows.append({
            "scenario": name,
            "scheduler": sched_name,
            "window_jobs": window_jobs,
            "n_jobs": rep.num_jobs,
            "miss_rate": rep.miss_rate,
            "mean_slowdown": rep.mean_slowdown,
            "mean_tardiness": rep.mean_tardiness,
            "mean_utilization": rep.mean_utilization,
            "throughput": rep.throughput,
        })
    return rows
