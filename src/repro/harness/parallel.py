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

``workers`` alone picks how the cells run: in this process at 1, on a
``spawn`` process pool above 1. Both run cells through
:func:`_run_batch`, which builds each (scenario, trace seed) trace once
per batch for all the schedulers that share it. This module owns every
process the package starts for evaluation.

``spawn`` is the only start method that is safe everywhere (no forked
locks, no inherited RNG state), and it forces the cell specs to be
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
import multiprocessing as mp
import os
import pickle
import sys
import traceback
import warnings
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

__all__ = ["EvalCell", "BaselineFactory", "FixedScheduler", "CellFailure",
           "run_cells", "evaluate_grid", "cell_key", "cell_keys",
           "runs_in_process"]

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
    cell from the same state at every worker count, and the wrapped
    instance itself never runs.
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

    Each distinct scenario object is encoded once per call, and each
    (factory, scenario) pair's scheduler is built and encoded once per
    call, their bytes reused by every key that names them; the keys are
    those of building and fingerprinting each cell's parts afresh. The
    memos are this call's alone: scenarios and factories are mutable, so
    a later call re-encodes them.
    """
    scenarios: Dict[int, EncodedPart] = {}
    policies: Dict[Tuple[int, int], EncodedPart] = {}
    keys = []
    for cell in cells:
        scenario = scenarios.get(id(cell.scenario))
        if scenario is None:
            scenario = scenarios[id(cell.scenario)] = encode_part(cell.scenario)
        pair = (id(cell.factory), id(cell.scenario))
        policy = policies.get(pair)
        if policy is None:
            policy = policies[pair] = encode_part(cell.factory(cell.scenario))
        keys.append(fingerprint(scenario, cell.scheduler_name, policy,
                                cell.trace_seed, cell.scenario.engine,
                                cell.max_ticks))
    return keys


def cell_key(cell: EvalCell) -> str:
    """One cell's persistent cache key (see :func:`cell_keys`)."""
    return cell_keys([cell])[0]


def run_cell(cell: EvalCell, trace: List[Job]) -> object:
    """Execute one cell on ``trace``: evaluate, report.

    ``trace`` is the batch's template for ``(cell.scenario,
    cell.trace_seed)``, shared with every other cell naming that pair;
    it is only ever cloned (``clone_pending``), never simulated itself.

    Scenarios exposing ``evaluate_segment`` evaluate their own cells
    under the cell's tick budget: windowed segment scenarios
    (:class:`~repro.harness.library.TraceWindowScenario`) return a
    mergeable :class:`~repro.sim.metrics.SegmentMetrics` instead of a
    whole-run report; :func:`~repro.sim.metrics.merge_segments` reduces
    them across windows. The experiments' scenarios
    (:mod:`repro.harness.experiments`) return small typed results.
    """
    policy = cell.factory(cell.scenario)
    evaluate_segment = getattr(cell.scenario, "evaluate_segment", None)
    if evaluate_segment is not None:
        return evaluate_segment(policy, cell.trace_seed, trace, cell.max_ticks)
    from repro.core.training import evaluate_scheduler

    return evaluate_scheduler(
        policy, cell.scenario.platforms, [trace],
        max_ticks=cell.max_ticks, engine=cell.scenario.engine,
    )[0]


def _run_batch(cells: Sequence[EvalCell],
               trace: Optional[List[Job]] = None) -> List[Tuple[str, object]]:
    """Worker entry point: run ``cells`` in order; never raises.

    Builds each distinct (scenario object, trace seed) trace at the
    first cell naming it, hands that same list to every later cell
    naming it, and drops it after the last one, so
    :func:`evaluate_grid`'s order keeps at most ``n_traces`` traces of
    one scenario alive. ``trace``, when given, is the first cell's trace
    already built, and is taken over instead. A trace that fails to
    build fails each cell naming it, under that cell's own identity.

    Exceptions are returned as data (a formatted traceback) rather than
    pickled across the process boundary — custom exception types may not
    survive unpickling, and the parent wants the cell identity attached
    anyway.
    """
    last = {(id(cell.scenario), cell.trace_seed): i
            for i, cell in enumerate(cells)}
    traces: Dict[Tuple[int, int], List[Job]] = {}
    if trace is not None and cells:
        traces[(id(cells[0].scenario), cells[0].trace_seed)] = trace
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


def _spawn_is_safe() -> bool:
    """Whether a ``spawn`` child can re-import ``__main__``.

    Scripts piped through stdin (``python - <<EOF``) advertise a
    ``__main__.__file__`` that does not exist on disk; spawn children
    would crash on import and the pool would respawn them forever.
    """
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    return main_file is None or os.path.exists(main_file)


def _pickle_batch(batch: Sequence[EvalCell]) -> bytes:
    """``batch`` as one pickle; a batch that does not pickle names its
    first cell that does not."""
    try:
        return pickle.dumps(batch)
    except Exception:
        for cell in batch:
            try:
                pickle.dumps(cell)
            except Exception as exc:
                raise ValueError(
                    f"cell {cell.describe()} is not picklable ({exc!r}); "
                    "workers > 1 requires module-level scheduler factories "
                    "(e.g. repro.harness.parallel.BaselineFactory), not "
                    "lambdas or closures") from exc
        raise


def _run_pickled_batch(blob: bytes) -> List[Tuple[str, object]]:
    """Pool worker entry point: :func:`_run_batch` on the batch the
    parent pickled into ``blob`` (so unpickling it is safe)."""
    return _run_batch(pickle.loads(blob))


def _run_pool(cells: Sequence[EvalCell],
              workers: int) -> List[Tuple[str, object]]:
    """Run ``cells`` on a ``spawn`` pool of at most ``workers`` processes.

    The cells are cut into about four contiguous batches per process;
    each batch is pickled once, here, crosses to its worker as those
    bytes and runs there through :func:`_run_batch`, sharing its
    traces. Every cell's result is a function of the cell alone, so the
    batch boundaries change only speed. A single cell, and a stdin
    script whose ``__main__`` spawn children cannot re-import (with a
    ``RuntimeWarning``), run in this process instead.
    """
    if len(cells) <= 1:
        return _run_batch(cells)
    if not _spawn_is_safe():
        warnings.warn(
            "__main__ is not importable by spawned workers (stdin "
            "script?); running evaluation cells serially",
            RuntimeWarning, stacklevel=2)
        return _run_batch(cells)
    processes = min(workers, len(cells))
    size = -(-len(cells) // (4 * processes))
    batches = [_pickle_batch(cells[i:i + size])
               for i in range(0, len(cells), size)]
    with mp.get_context("spawn").Pool(processes=processes) as pool:
        done = pool.map(_run_pickled_batch, batches, chunksize=1)
    return [outcome for outcomes in done for outcome in outcomes]


def runs_in_process(workers: int, backend: Optional[str]) -> bool:
    """Whether ``workers`` and ``backend`` run cells in this process.

    ``backend`` is ``None`` or ``"serial"``, which means ``workers=1``;
    any other value, and ``workers`` below 1, raise ``ValueError``.
    """
    if backend == "serial":
        return True
    if backend is not None:
        raise ValueError(f"unknown backend {backend!r}; pass workers=1 "
                         "or more instead")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers == 1


def run_cells(
    cells: Sequence[EvalCell],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
    trace: Optional[List[Job]] = None,
) -> List[object]:
    """Evaluate every cell; results in cell order.

    Probes the ``cache``, runs only the misses — in this process at
    ``workers == 1``, on a ``spawn`` pool of ``workers`` processes above
    it — writes every successful result back *before* surfacing the
    first failure (so a retry after fixing one bad cell replays the rest
    from cache), and returns cell ``i``'s result at index ``i``
    regardless of worker count or hit/miss split. ``workers`` and
    ``backend`` are checked by :func:`runs_in_process`.

    ``trace`` is for cells that all name one scenario and trace seed:
    that trace, already built. The misses then simulate clones of it in
    this process instead of building it (windowed evaluation hands over
    the jobs its planner has just decoded); the pool's processes build
    their own.
    """
    serial = runs_in_process(workers, backend)

    results: List[Optional[object]] = [None] * len(cells)
    keys = cell_keys(cells) if cache is not None else None
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
        outcomes = _run_batch(pending, trace) if serial \
            else _run_pool(pending, workers)
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
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    backend: Optional[str] = None,
) -> Dict[Tuple[str, str], List[object]]:
    """Evaluate every scheduler on every scenario over paired trace seeds.

    Builds one :class:`EvalCell` per (scenario, scheduler, seed), nested
    in that order, with seeds ``base_seed .. base_seed + n_traces - 1``
    shared by every scheduler, and makes one :func:`run_cells` call
    with ``workers``, ``cache`` and ``backend``. ``max_ticks`` overrides
    each scenario's own tick budget.

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
    grid: Dict[Tuple[str, str], List[object]] = {
        (scen_name, sched_name): []
        for scen_name in scenarios for sched_name in schedulers
    }
    for cell, report in zip(cells, reports):
        grid[(cell.scenario_name, cell.scheduler_name)].append(report)
    return grid
