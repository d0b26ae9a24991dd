"""Suspend/resume contract: snapshot at any boundary, restore, finish.

Pinned here (the foundation the serving layer's crash-consistent
restart stands on): a run interrupted at an *arbitrary* tick — snapshot
serialized through JSON, restored in fresh objects, resumed to
completion — is bit-identical to the uninterrupted run in every
observable: the normalized event log, the utilization series, the
MetricsReport, per-job float progress/finish times, fault statistics,
and energy accounting. This holds across both engines for the resumed
half, across quiescence levels (the policies below declare different
ones), under fault injection with a live RNG, and for cut == 0 (restore
before anything happened) and cuts at/after drain.
"""

import json

import numpy as np
import pytest

from repro.baselines import (
    EDFScheduler,
    GreedyElasticScheduler,
    RandomScheduler,
    TetrisScheduler,
)
from repro.harness import standard_scenario
from repro.sim import (
    EnergyMeter,
    EventKernel,
    FaultInjector,
    FaultModel,
    PowerModel,
    Simulation,
    SimulationConfig,
    restore_simulation,
    snapshot_simulation,
)
from repro.sim.events import EventKind

POLICIES = {
    "edf": lambda: EDFScheduler(),
    "tetris": lambda: TetrisScheduler(),
    "greedy-elastic": lambda: GreedyElasticScheduler(),
    "random": lambda: RandomScheduler(seed=11),
}

SCENARIO = standard_scenario(load=0.7, horizon=60)
HORIZON = 2000


def fault_models():
    return {name: FaultModel(mtbf=200.0, mttr=5.0)
            for name in ("cpu", "gpu")}


def power_models():
    return {"cpu": PowerModel(idle_power=10.0, busy_power=100.0),
            "gpu": PowerModel(idle_power=30.0, busy_power=300.0)}


def build_sim(trace, drop_on_miss=False, faults=False, energy=False):
    jobs = [j.clone_pending() for j in trace]
    injector = (FaultInjector(fault_models(), rng=np.random.default_rng(7))
                if faults else None)
    meter = EnergyMeter(power_models()) if energy else None
    sim = Simulation(
        SCENARIO.platforms, jobs,
        SimulationConfig(drop_on_miss=drop_on_miss, horizon=HORIZON),
        fault_injector=injector, energy_meter=meter,
    )
    return sim


def policy_rng_state(policy):
    rng = getattr(policy, "rng", None)
    if isinstance(rng, np.random.Generator):
        return rng.bit_generator.state
    return None


def restore_policy_rng(policy, state):
    if state is None:
        return
    bit_gen = getattr(np.random, state["bit_generator"])()
    bit_gen.state = state
    policy.rng = np.random.Generator(bit_gen)


def observables(sim, report):
    obs = {
        "now": sim.now,
        "log": list(sim.log.events),
        "utilization": list(sim.utilization_series),
        "metrics": report.as_dict(),
        "jobs": [(j.progress, j.finish_time, j.state, j.platform,
                  j.parallelism) for j in sim._all_jobs],
    }
    if sim.energy_meter is not None:
        obs["energy"] = (sim.energy_meter.total_energy,
                         dict(sim.energy_meter.per_platform),
                         list(sim.energy_meter.power_series))
    if sim.fault_injector is not None:
        f = sim.fault_injector.stats
        obs["faults"] = (f.failures, f.repairs, f.preemptions,
                         f.downtime_unit_ticks, dict(f.per_platform_failures))
    return obs


def uninterrupted(policy_name, trace, **cfg):
    sim = build_sim(trace, **cfg)
    report = sim.run_policy(POLICIES[policy_name](), engine="event")
    return observables(sim, report)


def interrupted(policy_name, trace, cut, resume_engine="event", **cfg):
    """Run ``cut`` ticks, snapshot via a JSON round trip, resume fresh."""
    sim = build_sim(trace, **cfg)
    policy = POLICIES[policy_name]()
    if cut > 0:
        EventKernel(sim, policy).run(max_ticks=cut)
    snap = json.loads(json.dumps(snapshot_simulation(sim)))
    rng_state = json.loads(json.dumps(policy_rng_state(policy)))

    restored = restore_simulation(snap)
    resumed_policy = POLICIES[policy_name]()
    restore_policy_rng(resumed_policy, rng_state)
    report = restored.run_policy(resumed_policy,
                                 max_ticks=HORIZON - restored.now,
                                 engine=resume_engine)
    return observables(restored, report)


class TestSuspendResumeContract:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("cut", [0, 13, 37])
    def test_resume_matches_uninterrupted(self, name, cut):
        trace = SCENARIO.trace(1000)
        assert uninterrupted(name, trace) == \
            interrupted(name, trace, cut)

    @pytest.mark.parametrize("resume_engine", ["tick", "event"])
    def test_resume_engine_agnostic(self, resume_engine):
        trace = SCENARIO.trace(1001)
        assert uninterrupted("greedy-elastic", trace) == \
            interrupted("greedy-elastic", trace, 21,
                        resume_engine=resume_engine)

    @pytest.mark.parametrize("name", ["edf", "random"])
    @pytest.mark.parametrize("cut", [5, 29])
    def test_faults_and_energy_survive_snapshot(self, name, cut):
        trace = SCENARIO.trace(1002)
        cfg = dict(faults=True, energy=True)
        assert uninterrupted(name, trace, **cfg) == \
            interrupted(name, trace, cut, **cfg)

    def test_drop_on_miss_survives_snapshot(self):
        trace = SCENARIO.trace(1003)
        cfg = dict(drop_on_miss=True)
        assert uninterrupted("edf", trace, **cfg) == \
            interrupted("edf", trace, 17, **cfg)

    def test_snapshot_after_drain_is_stable(self):
        trace = SCENARIO.trace(1004)
        sim = build_sim(trace)
        report = sim.run_policy(EDFScheduler(), engine="event")
        restored = restore_simulation(
            json.loads(json.dumps(snapshot_simulation(sim))))
        assert restored.is_done()
        assert restored.metrics().as_dict() == report.as_dict()
        assert restored.log.events == sim.log.events


class TestSnapshotSurface:
    def test_rejects_simulation_subclasses(self):
        class NotQuite(Simulation):
            pass

        sim = NotQuite(SCENARIO.platforms, [], SimulationConfig())
        with pytest.raises(TypeError, match="flat Simulation"):
            snapshot_simulation(sim)

    def test_snapshot_is_json_clean(self):
        sim = build_sim(SCENARIO.trace(1005), faults=True, energy=True)
        EventKernel(sim, EDFScheduler()).run(max_ticks=9)
        text = json.dumps(snapshot_simulation(sim))
        assert json.loads(text) == snapshot_simulation(sim)

    def test_restore_reserves_job_ids(self):
        """Restored jobs keep their ids, which are their slots, so the
        next job a restored simulation takes gets the next slot."""
        from tests.conftest import make_job

        sim = build_sim(SCENARIO.trace(1006))
        restored = restore_simulation(
            json.loads(json.dumps(snapshot_simulation(sim))))
        n = len(sim._all_jobs)
        assert [j.job_id for j in restored._all_jobs] == list(range(n))
        job = make_job(arrival=restored.now)
        restored.inject_job(job)
        assert job.job_id == n and restored._all_jobs[n] is job

    def test_restore_refuses_ids_that_are_not_slots(self):
        sim = build_sim(SCENARIO.trace(1007))
        snap = json.loads(json.dumps(snapshot_simulation(sim)))
        snap["jobs"][0]["job_id"], snap["jobs"][1]["job_id"] = 1, 0
        with pytest.raises(ValueError, match="slots in order"):
            restore_simulation(snap)


class TestInjectJob:
    def make(self, arrival=5, **kw):
        from tests.conftest import make_job

        return make_job(arrival=arrival, **kw)

    def fresh_sim(self):
        return Simulation(SCENARIO.platforms, [],
                          SimulationConfig(horizon=100))

    def test_future_arrival_splices_in_order(self):
        sim = self.fresh_sim()
        late = self.make(arrival=9)
        early = self.make(arrival=3)
        sim.inject_job(late)
        sim.inject_job(early)
        assert [j.arrival_time for j in sim._future] == [3, 9]
        assert sim._next_arrival == 3

    def test_arrival_now_goes_straight_to_pending(self):
        sim = self.fresh_sim()
        job = self.make(arrival=0)
        sim.inject_job(job)
        assert list(sim.pending) == [job]
        assert [(e.kind, e.job_id) for e in sim.log.events] == \
            [(EventKind.ARRIVAL, job.job_id)]

    def test_past_arrival_rejected(self):
        sim = self.fresh_sim()
        sim.inject_job(self.make(arrival=0, work=1000.0))
        sim.run_policy(EDFScheduler(), max_ticks=4)
        assert sim.now == 4
        with pytest.raises(ValueError, match="before the current tick"):
            sim.inject_job(self.make(arrival=2))

    def test_started_job_rejected(self):
        sim = self.fresh_sim()
        job = self.make(arrival=0)
        sim.inject_job(job)
        sim.run_policy(EDFScheduler(), max_ticks=2)
        with pytest.raises(ValueError, match="already"):
            sim.inject_job(job)


def test_job_ids_are_monotonic_slots():
    """A job's id is its slot: each job a simulation takes gets the next
    one, never an id it already gave, and a job no simulation holds has
    none."""
    from tests.conftest import make_job

    sim = Simulation(SCENARIO.platforms, [make_job(arrival=4)],
                     SimulationConfig(horizon=100))
    jobs = [make_job(arrival=a) for a in (9, 2, 5)]
    assert [j.job_id for j in jobs] == [None, None, None]
    for job in jobs:
        sim.inject_job(job)
    assert [j.job_id for j in jobs] == [1, 2, 3]
    assert [j.job_id for j in sim._all_jobs] == [0, 1, 2, 3]
