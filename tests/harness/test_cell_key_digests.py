"""Frozen digests of the persistent result-cache keys.

The oracle for ``cell_key`` and ``cell_keys``: a key is the only name a
cached result has, so a key that changes silently turns every existing
cache cold, and two cells that share a key silently share a result.
Each group's digest is one SHA-256 over its cell keys in cell order:

* ``registry``: the four bundled registry scenarios in name order,
  each as built and with ``with_engine("event")``, x the seven-entry
  heuristic roster as ``BaselineFactory`` x trace seeds 0, 1000, 1001
  and 7;
* ``windows``: a ``plan_trace_windows`` plan (20-job windows) over the
  ``swf-fixture`` trace at seed 1000, x ``edf`` and ``fifo``, seed 0;
* ``fixed-trace``: a ``FixedTraceScenario`` of the same trace x the
  roster x seeds 0 and 1000;
* ``drl``: a ``FixedScheduler`` wrapping a ``DRLScheduler`` whose
  weights come from a seeded generator, so the weights are part of the
  key, on ``quick`` and ``swf-fixture`` x seeds 1000 and 1001.

Every group is checked through ``cell_key`` one cell at a time and
through one ``cell_keys`` call over the whole group. The digests were
frozen under the numpy version pinned in ``requirements-ci.txt`` (the
``drl`` weights are drawn by numpy): a mismatch is a key change, never
a digest to regenerate.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import baseline_roster
from repro.harness import (
    BaselineFactory,
    EvalCell,
    FixedScheduler,
    FixedTraceScenario,
    plan_trace_windows,
)
from repro.harness.library import get_scenario
from repro.harness.parallel import cell_key, cell_keys
from repro.workload.traces import save_trace

#: The bundled registry, in name order (tests may register more).
REGISTRY = ("columnar-fixture", "quick", "standard", "swf-fixture")
SEEDS = (0, 1000, 1001, 7)
ROSTER = {name: BaselineFactory(name) for name in baseline_roster()}
TWO = {name: ROSTER[name] for name in ("edf", "fifo")}


def grid(scenarios, schedulers, seeds):
    return [EvalCell(scen_name, scenario, sched_name, factory, i, seed,
                     scenario.max_ticks)
            for scen_name, scenario in scenarios
            for sched_name, factory in schedulers.items()
            for i, seed in enumerate(seeds)]


def registry_cells(tmp_path):
    scenarios = []
    for name in REGISTRY:
        scenario = get_scenario(name)
        scenarios += [(name, scenario),
                      (f"{name}@event", scenario.with_engine("event"))]
    return grid(scenarios, ROSTER, SEEDS)


def fixture_jobs():
    jobs = get_scenario("swf-fixture").trace(1000)
    return sorted(jobs, key=lambda j: j.arrival_time)


def window_cells(tmp_path):
    path = tmp_path / "fixture.jsonl.gz"
    save_trace(fixture_jobs(), str(path))
    plan = plan_trace_windows(str(path), window_jobs=20)
    assert len(plan) > 1
    scenarios = [(f"window-{w.window_index}", w) for w in plan]
    return grid(scenarios, TWO, (0,))


def fixed_trace_cells(tmp_path):
    scenario = FixedTraceScenario.from_jobs(fixture_jobs())
    return grid([("fixed", scenario)], ROSTER, (0, 1000))


def drl_cells(tmp_path):
    from repro.core import DRLScheduler
    from repro.rl.policies import CategoricalPolicy

    cells = []
    for name in ("quick", "swf-fixture"):
        scenario = get_scenario(name)
        env = scenario.eval_env([scenario.trace(1000)], seed=0)
        policy = CategoricalPolicy.for_sizes(
            env.encoder.obs_dim, env.actions.n, (16,),
            np.random.default_rng(0))
        sched = DRLScheduler(policy, scenario.core,
                             [p.name for p in scenario.platforms],
                             greedy=True)
        cells += grid([(name, scenario)], {"drl": FixedScheduler(sched)},
                      (1000, 1001))
    return cells


GROUPS = {
    "registry": registry_cells,
    "windows": window_cells,
    "fixed-trace": fixed_trace_cells,
    "drl": drl_cells,
}

#: group -> digest, frozen from the implementation that re-encoded the
#: whole scenario for every cell key.
DIGESTS = {
    "registry":
        "25ada286dc59f9933c527d29bf5d0eb12550d9cb77a46cc8936296ac34fedc66",
    "windows":
        "9f126b9ba77af0677d73c24cb853950beb4c6ebf80e7fc043315284d2cd0c8c8",
    "fixed-trace":
        "3ea0c79ce5f58fd4ac6a989dbf7ca671df5e7cc56363b113d9724e468092d1a2",
    "drl":
        "8fcaa6e4bf8591d427f7875b4151f1b490bd372a68df0a74721ca5656aaa3c57",
}


def digest(keys):
    h = hashlib.sha256()
    for key in keys:
        h.update(key.encode())
    return h.hexdigest()


@pytest.mark.parametrize("group", list(GROUPS))
@pytest.mark.parametrize("via", ["cell_key", "cell_keys"])
def test_cell_key_digest(group, via, tmp_path):
    cells = GROUPS[group](tmp_path)
    if via == "cell_key":
        keys = [cell_key(cell) for cell in cells]
    else:
        keys = cell_keys(cells)
    assert len(keys) == len(cells)
    assert digest(keys) == DIGESTS[group], (
        f"cell key digest mismatch for group {group!r} via {via} under "
        f"numpy {np.__version__}: a persistent cache key changed")
