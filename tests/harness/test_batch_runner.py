"""The batch runner does each cell's shared work once.

Work counts pinned here, all on the serial backend:

* a batch builds each distinct (scenario, trace seed) trace once and
  reduces each simulation once (one ``segment()`` pass per cell);
* windowed evaluation streams the container once to plan its windows
  and each window once, however many schedulers share it;
* at most ``n_traces`` trace templates are alive at once during an
  ``evaluate_grid`` batch, and none after it.
"""

import weakref

from repro.core import CoreConfig
from repro.harness import (
    BaselineFactory,
    EvalCell,
    evaluate_grid,
    evaluate_windowed,
    run_cells,
    standard_scenario,
)
from repro.harness.scenario import Scenario
from repro.sim.simulation import Simulation
from repro.workload.traces import save_trace_shards

SCHEDULERS = {name: BaselineFactory(name) for name in ("edf", "fifo", "sjf")}


def small_scenario(load: float = 0.6) -> Scenario:
    return standard_scenario(
        load=load, horizon=20, cpu_capacity=8, gpu_capacity=4,
        core=CoreConfig(queue_slots=3, running_slots=2, horizon=6),
        max_ticks=80)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is counted; returns the count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_batch_builds_each_trace_once_and_reduces_each_cell_once(
        monkeypatch):
    scenario = small_scenario()
    cells = [EvalCell("base", scenario, name, factory, i, 1000 + i, 80)
             for name, factory in SCHEDULERS.items() for i in range(2)]
    traces = count_calls(monkeypatch, Scenario, "trace")
    segments = count_calls(monkeypatch, Simulation, "segment")
    reports = run_cells(cells, backend="serial")
    assert len(reports) == 6
    assert traces[0] == 2
    assert segments[0] == len(cells)


def test_windowed_streams_each_window_once(monkeypatch, tmp_path):
    import repro.harness.library as library

    jobs = sorted(small_scenario().trace(1000), key=lambda j: j.arrival_time)
    path = str(tmp_path / "shards")
    save_trace_shards(jobs, path, jobs_per_shard=7)
    n_windows = len(library.plan_trace_windows(path, 9))
    assert n_windows > 1
    streamed = count_calls(monkeypatch, library, "iter_trace_lines")
    segments = count_calls(monkeypatch, Simulation, "segment")
    evaluate_windowed(path, {"edf": SCHEDULERS["edf"],
                             "fifo": SCHEDULERS["fifo"]}, 9,
                      backend="serial")
    # One pass plans the windows, then each window streams once.
    assert streamed[0] == 1 + n_windows
    assert segments[0] == 2 * n_windows


class _Trace(list):
    """A list that can be weakly referenced."""


def test_at_most_n_traces_alive_during_a_grid(monkeypatch):
    import repro.harness.parallel as par

    built = []
    build = Scenario.trace

    def tracked(self, seed):
        trace = _Trace(build(self, seed))
        built.append(weakref.ref(trace))
        return trace

    alive_at_cell = []
    run_cell = par.run_cell

    def counted(cell, *args):
        alive_at_cell.append(sum(ref() is not None for ref in built))
        return run_cell(cell, *args)

    monkeypatch.setattr(Scenario, "trace", tracked)
    monkeypatch.setattr(par, "run_cell", counted)
    scenarios = {"low": small_scenario(0.5), "high": small_scenario(0.9)}
    evaluate_grid(scenarios, SCHEDULERS, n_traces=3, backend="serial")
    assert len(alive_at_cell) == 2 * 3 * 3
    assert len(built) == 2 * 3
    # Shared by every scheduler of its scenario, so all three seeds'
    # traces are alive at once, and never more.
    assert max(alive_at_cell) == 3
    assert all(ref() is None for ref in built)
