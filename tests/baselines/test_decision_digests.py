"""Frozen digests of the heuristic schedulers' decisions.

The behavioural oracle for the admission walk and the elastic passes of
every deterministic heuristic (and of ``random``, whose RNG stream they
pin too). A group is a scenario (``standard`` on the tick engine,
``quick`` on the event engine) x a load (the scenario's own, and 1.5)
x faults (none, or ``FaultModel(mtbf=40, mttr=8)`` on every platform).
Its digest is one SHA-256 over trace seeds 1000-1002 x the heuristics
below, each built fresh per run, of

* the event log as ``(time, kind, job id, platform, parallelism,
  detail)`` (a job's id is its adoption slot), then
* ``repr(dataclasses.astuple(sim.metrics()))``.

Load 1.5 exhausts the cluster often, both on entry to ``schedule`` and
after an admission takes the last free unit; the fault groups check
that offline units never count as free. The digests were frozen under
the numpy version pinned in ``requirements-ci.txt``: a mismatch is a
behaviour change, never a digest to regenerate.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import (
    AdmissionControlScheduler,
    BackfillScheduler,
    EDFScheduler,
    GreedyElasticScheduler,
    MigratingElasticScheduler,
    baseline_roster,
)
from repro.core.training import evaluate_scheduler_runs
from repro.harness.library import get_scenario
from repro.sim import FaultModel

ENGINES = {"standard": "tick", "quick": "event"}
LOADS = ("own", 1.5)
FAULTS = ("none", "mtbf40")
TRACE_SEEDS = (1000, 1001, 1002)

HEURISTICS = {
    **{name: (lambda name=name: baseline_roster()[name])
       for name in baseline_roster()},
    "migrating-elastic": MigratingElasticScheduler,
    "easy-backfill-fifo": lambda: BackfillScheduler(priority="fifo"),
    "easy-backfill-edf": lambda: BackfillScheduler(priority="edf"),
    "ac-edf": lambda: AdmissionControlScheduler(EDFScheduler()),
    "ac-greedy-elastic":
        lambda: AdmissionControlScheduler(GreedyElasticScheduler()),
    "edf-blind-min": lambda: EDFScheduler("blind", "min"),
    "greedy-elastic-max": lambda: GreedyElasticScheduler(parallelism="max"),
}


def run_bytes(sim) -> bytes:
    log = [(e.time, e.kind.value, e.job_id, e.platform, e.parallelism,
            e.detail) for e in sim.log]
    report = dataclasses.astuple(sim.metrics())
    return repr(log).encode() + repr(report).encode()


def group_digest(scenario_name, load, faults):
    scenario = get_scenario(scenario_name).with_engine(ENGINES[scenario_name])
    if load != "own":
        scenario = scenario.with_load(load)
    fault_models = None
    if faults == "mtbf40":
        fault_models = {p.name: FaultModel(mtbf=40, mttr=8)
                        for p in scenario.platforms}
    h = hashlib.sha256()
    for seed in TRACE_SEEDS:
        trace = scenario.trace(seed)
        for make in HEURISTICS.values():
            sim, = evaluate_scheduler_runs(
                make(), scenario.platforms, [trace],
                max_ticks=scenario.max_ticks, fault_models=fault_models,
                engine=scenario.engine)
            h.update(run_bytes(sim))
    return h.hexdigest()


#: (scenario, load, faults) -> digest, frozen from the implementation
#: before the heuristics learned to stop at an exhausted cluster.
DIGESTS = {
    ("standard", "own", "none"):
        "37a009d8aeb456989921a9dfb9696961efcb38c0c3676fc4204f74e3e4c58a6f",
    ("standard", "own", "mtbf40"):
        "0fc319240d927734dbac65bbad861ff3975e8c0fd54261cbee0c0d1528ef9f3c",
    ("standard", 1.5, "none"):
        "d94a317a76dc2dbfbb37ec1e639b6eb5a4337f1e96edfad04a3296df65923cad",
    ("standard", 1.5, "mtbf40"):
        "efbfe7e5c06f10268b1a3c2e9f2429fc4d6ca4d697205424f445486bb1b2dbbc",
    ("quick", "own", "none"):
        "e1585d1dde2d05ce03c4057ebf286cc95e92a8006ebf3bdc07c6efdb82f0211d",
    ("quick", "own", "mtbf40"):
        "d61306386bc9314002d2f189b68d72f0fa90799f5e8661dad2e74911c92f07c2",
    ("quick", 1.5, "none"):
        "54360c6648f15f7ed4f60e6a365b700971bee1e083cc4b747f2e58998d8ab5b2",
    ("quick", 1.5, "mtbf40"):
        "22e0a887e914c87684062e733eda34571c87d6ecb06d36f80b16baf20a445a0e",
}


def group_id(group):
    scenario_name, load, faults = group
    return f"{scenario_name}-{ENGINES[scenario_name]}/load={load}/faults={faults}"


@pytest.mark.parametrize("group", list(DIGESTS), ids=group_id)
def test_decision_digest(group):
    got = group_digest(*group)
    assert got == DIGESTS[group], (
        f"decision digest mismatch for group {group_id(group)!r} under "
        f"numpy {np.__version__}: a heuristic's decisions changed")
