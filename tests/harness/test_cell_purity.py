"""Every evaluation cell is a pure function of its cache key.

A cell's report may depend only on what its key names: the scheduler
spec with its seed, the scenario, the trace seed, the engine and the
tick budget. Not on the worker count that ran it, on how the pool
batched the cells, on which worker count filled the cache, or on what
ran before it in the same process.

The matrix runs the stateful ``random`` baseline, as
``FixedScheduler(RandomScheduler(seed=3))`` and at seed 7, over
``quick`` and ``standard`` x trace seeds 1000-1003 every way a grid can
run, and holds each run to a reference that evaluates a fresh
``RandomScheduler`` on one trace at a time, without the grid. The
second scheduler doubles the grid to 16 cells, so a 2-worker pool hands
each worker batches of two cells, not one.
"""

import copy
import dataclasses

import pytest

from repro.baselines import RandomScheduler
from repro.core.training import evaluate_scheduler
from repro.harness import BaselineFactory, FixedScheduler, ResultCache, evaluate_grid
from repro.harness.library import get_scenario

SCENARIOS = ("quick", "standard")
SCHEDULER_SEEDS = (3, 7)
SEEDS = range(1000, 1004)
CELLS = len(SCENARIOS) * len(SCHEDULER_SEEDS) * len(SEEDS)


def as_bytes(reports):
    return [repr(dataclasses.astuple(report)) for report in reports]


@pytest.fixture(scope="module")
def reference():
    reports = []
    for name in SCENARIOS:
        scenario = get_scenario(name)
        for scheduler_seed in SCHEDULER_SEEDS:
            for seed in SEEDS:
                reports += evaluate_scheduler(
                    RandomScheduler(seed=scheduler_seed), scenario.platforms,
                    [scenario.trace(seed)], max_ticks=scenario.max_ticks,
                    engine=scenario.engine)
    return as_bytes(reports)


def run_grid(schedulers, **kwargs):
    scenarios = {name: get_scenario(name) for name in SCENARIOS}
    grid = evaluate_grid(scenarios, schedulers, n_traces=len(SEEDS),
                         base_seed=SEEDS[0], **kwargs)
    return as_bytes(r for reports in grid.values() for r in reports)


def fixed():
    return {f"random-{seed}": FixedScheduler(RandomScheduler(seed=seed))
            for seed in SCHEDULER_SEEDS}


def serial(tmp_path):
    return run_grid(fixed(), backend="serial")


def pool(tmp_path):
    return run_grid(fixed(), workers=2)


def warm(fill_workers, read_workers):
    def run(tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_grid(fixed(), workers=fill_workers, cache=cache)
        assert cache.stats["misses"] == CELLS
        reports = run_grid(fixed(), workers=read_workers, cache=cache)
        assert cache.stats["hits"] == CELLS
        return reports
    return run


def serial_twice(tmp_path):
    schedulers = fixed()
    first = run_grid(schedulers, backend="serial")
    assert run_grid(schedulers, backend="serial") == first
    return first


def baseline_factory(tmp_path):
    return run_grid({f"random-{seed}": BaselineFactory("random", seed=seed)
                     for seed in SCHEDULER_SEEDS}, backend="serial")


RUNS = {
    "serial": serial,
    "pool": pool,
    "pool-over-serial-cache": warm(1, 2),
    "serial-over-pool-cache": warm(2, 1),
    "serial-twice": serial_twice,
    "baseline-factory": baseline_factory,
}


@pytest.mark.parametrize("run", list(RUNS))
def test_every_run_equals_the_one_cell_loop(run, reference, tmp_path):
    assert RUNS[run](tmp_path) == reference


def test_the_wrapped_instance_never_runs():
    scheduler = RandomScheduler(seed=3)
    before = copy.deepcopy(scheduler.rng.bit_generator.state)
    run_grid({"random": FixedScheduler(scheduler)}, backend="serial")
    assert scheduler.rng.bit_generator.state == before
