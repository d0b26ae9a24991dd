"""Frozen digests of the metrics reduction.

The behavioural oracle for :func:`~repro.sim.metrics.compute_metrics`
(the reduction behind every ``Simulation.metrics()`` report). Each
registry scenario is one group: a SHA-256 over trace seeds 1000-1003 x
``drop_on_miss`` False/True x the seven ``baseline_roster()``
heuristics (a fresh roster per run) of ``repr(dataclasses.astuple(report))``.
Three edge cases are pinned one digest each. The digests were frozen
under the numpy version pinned in ``requirements-ci.txt``: a mismatch
is a behaviour change (of the reduction, or of the simulation feeding
it), never a digest to regenerate.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import baseline_roster
from repro.core.training import evaluate_scheduler_runs
from repro.harness.library import get_scenario
from repro.sim.metrics import compute_metrics

SCENARIOS = ("standard", "quick", "swf-fixture", "columnar-fixture")
TRACE_SEEDS = (1000, 1001, 1002, 1003)
ROSTER = tuple(baseline_roster())


def run(scenario, trace, name, drop_on_miss):
    return evaluate_scheduler_runs(
        baseline_roster()[name], scenario.platforms, [trace],
        drop_on_miss=drop_on_miss, max_ticks=scenario.max_ticks,
        engine=scenario.engine)[0]


def report_bytes(report) -> bytes:
    return repr(dataclasses.astuple(report)).encode()


def scenario_digest(scenario_name):
    scenario = get_scenario(scenario_name)
    h = hashlib.sha256()
    for seed in TRACE_SEEDS:
        trace = scenario.trace(seed)
        for drop_on_miss in (False, True):
            for name in ROSTER:
                sim = run(scenario, trace, name, drop_on_miss)
                h.update(report_bytes(sim.metrics()))
    return h.hexdigest()


def edge_report(case):
    scenario = get_scenario("standard")
    records = run(scenario, scenario.trace(1000), "edf", False).records()
    if case == "empty":
        return compute_metrics([])
    if case == "one-record":
        return compute_metrics(records[:1])
    assert case == "five-records-empty-series-horizon"
    return compute_metrics(records[:5], utilization_series=[], horizon=3.0)


#: Group -> digest, frozen from the implementation before
#: ``compute_metrics`` became ``merge_segments`` over one segment.
SCENARIO_DIGESTS = {
    "standard":
        "25ae365ce55b72ccbfe6a8ccc8a1c821bd2393763c4e79a9e35bf192c8551e52",
    "quick":
        "1828333917d6bb3a6d71d2157a1107867b6e071735d6075a27f1d730cb6a12c1",
    "swf-fixture":
        "5235e7d67cdadb9b4f1cfecd7dde9f0ec4daffb3cf3a25175c42dce05beba5d2",
    "columnar-fixture":
        "bba1c9935d3906c658b2b7142da6689388f88997cd0d986e7cf144885b7eeb63",
}

EDGE_DIGESTS = {
    "empty":
        "253c75b003bb08ccdf9cd8f86635a6d32a371576c684beebec7029afc8281434",
    "one-record":
        "1f1867c6ec4dc9454f4aa2c4a3f5e7ce9119273211f2b83e318ed531e5d60828",
    "five-records-empty-series-horizon":
        "bc11ef5eac0215bba298559fd633f778ed419683eef9461f99983c9b76261300",
}


def mismatch(group):
    return (f"metrics digest mismatch for group {group!r} under numpy "
            f"{np.__version__}: the reported metrics changed")


@pytest.mark.parametrize("scenario_name", SCENARIOS)
def test_scenario_digest(scenario_name):
    got = scenario_digest(scenario_name)
    assert got == SCENARIO_DIGESTS[scenario_name], mismatch(scenario_name)


@pytest.mark.parametrize("case", sorted(EDGE_DIGESTS))
def test_edge_case_digest(case):
    got = hashlib.sha256(report_bytes(edge_report(case))).hexdigest()
    assert got == EDGE_DIGESTS[case], mismatch(case)
