"""Frozen digests of evaluation-grid results.

The oracle for executing a grid: how each cell gets its trace, how its
simulation is driven and reduced, and how the backends hand cells to
workers. Each group's digest is one SHA-256 over
``repr(dataclasses.astuple(report))`` of every report, in grid order
(scenario, then scheduler, then trace seed):

* ``registry``: the four bundled registry scenarios (``standard``,
  ``quick``, ``swf-fixture``, ``columnar-fixture``) x the seven-entry
  heuristic roster as ``BaselineFactory``, in ``baseline_roster()``
  order, x trace seeds 1000-1003, on the serial backend;
* ``pool``: ``quick`` x the roster x seeds 1000-1001 on a 2-worker
  process pool;
* ``fixed-random``: one ``FixedScheduler(RandomScheduler(seed=3))``
  over ``standard`` then ``quick`` x seeds 1000-1001, serial; every
  cell runs a fresh copy, so the digest is that of a loop evaluating a
  new ``RandomScheduler(seed=3)`` on each cell's one trace;
* ``windowed``: ``evaluate_windowed`` with ``edf`` and ``fifo`` over a
  shard container of the ``swf-fixture`` trace at seed 1000 (15 jobs
  per shard, 20-job windows, event engine); its reports are the
  merged per-scheduler reports, in scheduler order;
* ``fuzz-faults``: a ``FuzzScenario`` with ``fault_rate > 0`` x
  ``edf`` and ``greedy-elastic`` x seeds 1000-1002, serial.

The digests were frozen under the numpy version pinned in
``requirements-ci.txt``: a mismatch is a behaviour change, never a
digest to regenerate.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import RandomScheduler, baseline_roster
from repro.harness import BaselineFactory, FixedScheduler, evaluate_grid
from repro.harness.library import get_scenario
from repro.harness.sweeps import evaluate_windowed
from repro.workload.fuzz.scenario import scenario_from_knobs
from repro.workload.traces import save_trace_shards

REGISTRY = ("standard", "quick", "swf-fixture", "columnar-fixture")
ROSTER = {name: BaselineFactory(name) for name in baseline_roster()}
TWO = {name: ROSTER[name] for name in ("edf", "fifo")}

FAULTY_KNOBS = {
    "load": 0.9, "arrival": "bursty", "burstiness": 0.4,
    "switch_prob": 0.1, "tightness": 1.0, "tc_share": 0.5,
    "width_scale": 1.0, "fault_rate": 0.02, "energy_idle": 0.2,
}


def grid_reports(grid):
    return [report for reports in grid.values() for report in reports]


def registry_reports(tmp_path):
    scenarios = {name: get_scenario(name) for name in REGISTRY}
    return grid_reports(evaluate_grid(scenarios, ROSTER, n_traces=4,
                                      base_seed=1000, backend="serial"))


def pool_reports(tmp_path):
    return grid_reports(evaluate_grid({"quick": get_scenario("quick")},
                                      ROSTER, n_traces=2, base_seed=1000,
                                      workers=2))


def fixed_random_reports(tmp_path):
    scenarios = {name: get_scenario(name) for name in ("standard", "quick")}
    schedulers = {"random": FixedScheduler(RandomScheduler(seed=3))}
    return grid_reports(evaluate_grid(scenarios, schedulers, n_traces=2,
                                      base_seed=1000, backend="serial"))


def windowed_reports(tmp_path):
    jobs = sorted(get_scenario("swf-fixture").trace(1000),
                  key=lambda j: j.arrival_time)
    path = tmp_path / "shards"
    save_trace_shards(jobs, str(path), jobs_per_shard=15)
    merged = evaluate_windowed(str(path), TWO, 20, engine="event",
                               backend="serial")
    return [merged[name] for name in TWO]


def fuzz_fault_reports(tmp_path):
    scenario = scenario_from_knobs(FAULTY_KNOBS, horizon=16, max_ticks=100)
    schedulers = {name: ROSTER[name] for name in ("edf", "greedy-elastic")}
    return grid_reports(evaluate_grid({"fuzz": scenario}, schedulers,
                                      n_traces=3, base_seed=1000,
                                      backend="serial"))


GROUPS = {
    "registry": registry_reports,
    "pool": pool_reports,
    "fixed-random": fixed_random_reports,
    "windowed": windowed_reports,
    "fuzz-faults": fuzz_fault_reports,
}

#: group -> digest, frozen from the implementation that rebuilt each
#: cell's trace and reduced each simulation twice; ``fixed-random``
#: from the one-cell-at-a-time loop described above, run without the
#: grid.
DIGESTS = {
    "registry":
        "0aca3e84453e2bdfc7297a15df3adaf07f50ab0cc0404b3f9669a37bb3a9c896",
    "pool":
        "8fbe66235543950bd1f74d21f250d2cb498a31817011cf795c390967168ca7e2",
    "fixed-random":
        "e28618ece547ff8c9e421898d43a3efd4163e71f6b62874679787b76bd747b6b",
    "windowed":
        "3cdf2667583006c3525992992fe8361f094705ee5bad9814fb68365a0f41f9ca",
    "fuzz-faults":
        "158a8c093de4e6f00407fc9ac6998f890769d58bb863ef28bcaa3deaf653922f",
}


def digest(reports):
    h = hashlib.sha256()
    for report in reports:
        h.update(repr(dataclasses.astuple(report)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", list(GROUPS))
def test_grid_digest(group, tmp_path):
    reports = GROUPS[group](tmp_path)
    assert reports
    assert digest(reports) == DIGESTS[group], (
        f"grid digest mismatch for group {group!r} under numpy "
        f"{np.__version__}: an evaluation result changed")
