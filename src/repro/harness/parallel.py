"""The evaluation grid: (scenario, scheduler, trace-seed) cells.

Every comparison in the repository — the e-series experiments,
``repro.cli evaluate``, sweeps, windowed archives, the leaderboard and
the fuzzer — is a scheduler x scenario x seed grid built by
:func:`evaluate_grid` and executed by :func:`run_cells`. The grid
factorizes into independent *cells*: one scheduler evaluated on one
reproducible trace of one scenario. Each cell is deterministic given its
:class:`EvalCell` spec — the trace is built from its seed inside the
worker, the scheduler comes from its factory — so cells can be
executed in any order, on any process, and merged back
deterministically: results are returned in cell order, which makes the
``workers=N`` path byte-identical to the serial one.

Every backend runs cells through :func:`_run_batch`, which builds
each (scenario, trace seed) trace once per batch for all the
schedulers that share it.

Process pools use the ``spawn`` start method (see
:mod:`repro.harness.executor`), which forces the cell specs to be
genuinely picklable — exactly the property that also makes them
cacheable. Factories must therefore be module-level callables (plain
functions, :class:`BaselineFactory`, :class:`FixedScheduler`, or any
picklable callable object) when ``workers > 1``; lambdas and closures
still work in the serial path.

A :class:`~repro.harness.cache.ResultCache` short-circuits cells whose
fingerprint key has been computed before — across runs, sessions, and
worker processes.
"""

from __future__ import annotations

import copy
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.cache import (
    EncodedPart,
    ResultCache,
    encode_part,
    fingerprint,
)
from repro.harness.scenario import Scenario
from repro.sim.job import Job
from repro.sim.metrics import MetricsReport

__all__ = ["EvalCell", "BaselineFactory", "FixedScheduler", "CellFailure",
           "run_cells", "evaluate_grid", "cell_key", "cell_keys"]

SchedulerFactory = Callable[[Scenario], object]


@dataclass(frozen=True)
class BaselineFactory:
    """Picklable factory for one heuristic of the baseline roster.

    ``sweep_schedulers`` factories are often written as lambdas; those
    cannot cross a ``spawn`` process boundary. This one can — use it
    (or any module-level callable) whenever ``workers > 1``.
    """

    name: str
    platform_choice: str = "best"
    parallelism: str = "fit"
    seed: int = 0

    def __call__(self, scenario: Scenario) -> object:
        from repro.baselines import ROSTER_CLASSES

        cls = ROSTER_CLASSES.get(self.name)
        if cls is None:
            raise KeyError(f"unknown baseline {self.name!r}; "
                           f"choose from {sorted(ROSTER_CLASSES)}")
        return cls(self.platform_choice, self.parallelism, self.seed)


@dataclass(frozen=True, eq=False)
class FixedScheduler:
    """Picklable factory for a scheduler that already exists as an
    instance: a trained policy or a configured heuristic.

    Every cell gets a fresh copy of the instance as it was wrapped, so
    a stateful scheduler (the ``random`` baseline's RNG) starts each
    cell from the same state on every backend, and the wrapped instance
    itself never runs.
    """

    scheduler: object

    def __call__(self, scenario: Scenario) -> object:
        return copy.deepcopy(self.scheduler)


@dataclass(frozen=True)
class EvalCell:
    """One unit of evaluation work: scheduler x scenario x trace seed.

    Fully self-describing and picklable: a worker process reconstructs
    the trace from ``trace_seed`` and the scheduler from ``factory``, so
    shipping a cell costs bytes, not simulations.
    """

    scenario_name: str
    scenario: Scenario
    scheduler_name: str
    factory: SchedulerFactory
    trace_index: int
    trace_seed: int
    max_ticks: int

    def describe(self) -> str:
        return (f"(scenario={self.scenario_name!r}, "
                f"scheduler={self.scheduler_name!r}, "
                f"trace_seed={self.trace_seed})")


class CellFailure(RuntimeError):
    """An evaluation cell raised; carries the cell identity and traceback."""


def cell_keys(cells: Sequence[EvalCell]) -> List[str]:
    """Persistent cache keys, in cell order: each a fingerprint of
    everything the cell's result depends on — scenario spec, scheduler
    name + full parameterization (the *instantiated* scheduler, so a DRL
    policy's weights are part of the key), trace seed, engine, and tick
    budget.

    Each distinct scenario object is encoded once per call and its
    bytes reused by every key that names it; the keys are those of
    fingerprinting each cell's scenario afresh. The memo is this call's
    alone: scenarios are mutable, so a later call re-encodes them.
    """
    encoded: Dict[int, EncodedPart] = {}
    keys = []
    for cell in cells:
        policy = cell.factory(cell.scenario)
        part = encoded.get(id(cell.scenario))
        if part is None:
            part = encoded[id(cell.scenario)] = encode_part(cell.scenario)
        keys.append(fingerprint(part, cell.scheduler_name, policy,
                                cell.trace_seed, cell.scenario.engine,
                                cell.max_ticks))
    return keys


def cell_key(cell: EvalCell) -> str:
    """One cell's persistent cache key (see :func:`cell_keys`)."""
    return cell_keys([cell])[0]


def run_cell(cell: EvalCell, trace: List[Job]) -> MetricsReport:
    """Execute one cell on ``trace``: evaluate, report.

    ``trace`` is the batch's template for ``(cell.scenario,
    cell.trace_seed)``, shared with every other cell naming that pair;
    it is only ever cloned (``clone_pending``), never simulated itself.

    Windowed segment scenarios (anything exposing ``evaluate_segment``,
    i.e. :class:`~repro.harness.library.TraceWindowScenario`) return a
    mergeable :class:`~repro.sim.metrics.SegmentMetrics` instead of a
    whole-run report; :func:`~repro.sim.metrics.merge_segments` reduces
    them across windows.
    """
    policy = cell.factory(cell.scenario)
    evaluate_segment = getattr(cell.scenario, "evaluate_segment", None)
    if evaluate_segment is not None:
        return evaluate_segment(policy, cell.trace_seed, trace)
    from repro.core.training import evaluate_scheduler

    return evaluate_scheduler(
        policy, cell.scenario.platforms, [trace],
        max_ticks=cell.max_ticks, engine=cell.scenario.engine,
    )[0]


def _run_batch(cells: Sequence[EvalCell]) -> List[Tuple[str, object]]:
    """Worker entry point: run ``cells`` in order; never raises.

    Builds each distinct (scenario object, trace seed) trace at the
    first cell naming it, hands that same list to every later cell
    naming it, and drops it after the last one, so
    :func:`evaluate_grid`'s order keeps at most ``n_traces`` traces of
    one scenario alive. A trace that fails to build fails each cell
    naming it, under that cell's own identity.

    Exceptions are returned as data (a formatted traceback) rather than
    pickled across the process boundary — custom exception types may not
    survive unpickling, and the parent wants the cell identity attached
    anyway.
    """
    last = {(id(cell.scenario), cell.trace_seed): i
            for i, cell in enumerate(cells)}
    traces: Dict[Tuple[int, int], List[Job]] = {}
    outcomes: List[Tuple[str, object]] = []
    for i, cell in enumerate(cells):
        key = (id(cell.scenario), cell.trace_seed)
        try:
            trace = traces.get(key)
            if trace is None:
                trace = traces[key] = cell.scenario.trace(cell.trace_seed)
            outcomes.append(("ok", run_cell(cell, trace)))
        except Exception as exc:
            outcomes.append(("err", (cell.describe(), repr(exc),
                                     traceback.format_exc())))
        if last[key] == i:
            traces.pop(key, None)
    return outcomes


def _failure_error(outcome: Tuple[str, object]) -> CellFailure:
    desc, err, tb = outcome[1]
    return CellFailure(
        f"evaluation cell {desc} failed: {err}\n"
        f"--- worker traceback ---\n{tb}")


def run_cells(
    cells: Sequence[EvalCell],
    workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    backend=None,
) -> List[MetricsReport]:
    """Evaluate every cell through an executor backend; results in cell
    order.

    Probes the ``cache``, runs only the misses, writes every successful
    result back *before* surfacing the first failure (so a retry after
    fixing one bad cell replays the rest from cache), and returns cell
    ``i``'s result at index ``i`` regardless of backend, worker count, or
    hit/miss split.

    ``backend`` is a backend instance, a ``"serial"`` / ``"pool"`` /
    ``"queue"`` name (see :mod:`repro.harness.executor`), or ``None``:
    serial for ``workers == 1``, the ``spawn`` pool otherwise.
    ``workers=None`` resolves to the CPUs this process may run on
    (:func:`~repro.harness.executor.available_cpus`, affinity-aware).
    """
    from repro.harness.executor import (
        PoolBackend,
        SerialBackend,
        available_cpus,
        make_backend,
    )

    if workers is None:
        workers = available_cpus()
    if isinstance(backend, str):
        backend = make_backend(backend, workers=workers)
    if backend is None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        backend = SerialBackend() if workers == 1 else PoolBackend(workers)

    results: List[Optional[object]] = [None] * len(cells)
    want_keys = cache is not None or getattr(backend, "needs_keys", False)
    keys = cell_keys(cells) if want_keys else None
    todo: List[int] = []
    for i in range(len(cells)):
        if cache is not None:
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                continue
        todo.append(i)

    failure: Optional[CellFailure] = None
    if todo:
        pending = [cells[i] for i in todo]
        pending_keys = [keys[i] for i in todo] if want_keys else None
        outcomes = backend.run(pending, keys=pending_keys)
        for i, outcome in zip(todo, outcomes):
            if outcome[0] != "ok":
                if failure is None:
                    failure = _failure_error(outcome)
                continue
            results[i] = outcome[1]
            if cache is not None:
                cache.put(keys[i], results[i])
    if cache is not None:
        cache.flush_counters()
    if failure is not None:
        raise failure
    return results


def evaluate_grid(
    scenarios: Mapping[str, Scenario],
    schedulers: Mapping[str, SchedulerFactory],
    n_traces: int = 3,
    base_seed: int = 1000,
    max_ticks: Optional[int] = None,
    workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    backend=None,
) -> Dict[Tuple[str, str], List[MetricsReport]]:
    """Evaluate every scheduler on every scenario over paired trace seeds.

    Builds one :class:`EvalCell` per (scenario, scheduler, seed), nested
    in that order, with seeds ``base_seed .. base_seed + n_traces - 1``
    shared by every scheduler, and makes one :func:`run_cells` call.
    ``max_ticks`` overrides each scenario's own tick budget.

    Returns ``(scenario name, scheduler name) -> results in seed order``,
    keyed scenario-then-scheduler in the order of the two mappings.
    """
    cells = [
        EvalCell(scenario_name=scen_name, scenario=scenario,
                 scheduler_name=sched_name, factory=factory,
                 trace_index=i, trace_seed=base_seed + i,
                 max_ticks=(max_ticks if max_ticks is not None
                            else scenario.max_ticks))
        for scen_name, scenario in scenarios.items()
        for sched_name, factory in schedulers.items()
        for i in range(n_traces)
    ]
    reports = run_cells(cells, workers=workers, cache=cache, backend=backend)
    grid: Dict[Tuple[str, str], List[MetricsReport]] = {
        (scen_name, sched_name): []
        for scen_name in scenarios for sched_name in schedulers
    }
    for cell, report in zip(cells, reports):
        grid[(cell.scenario_name, cell.scheduler_name)].append(report)
    return grid
