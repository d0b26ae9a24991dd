"""Job.clone_pending and evaluate_scheduler_runs: paired-replay machinery."""

import numpy as np
import pytest

from repro.baselines import EDFScheduler, FIFOScheduler
from repro.core import evaluate_scheduler, evaluate_scheduler_runs
from repro.sim import FaultModel, JobState, Platform, PowerModel
from tests.conftest import make_job

PLATFORMS = [Platform("cpu", 8, 1.0), Platform("gpu", 4, 1.0)]


def small_trace(rng, n=10):
    return [make_job(arrival=int(rng.integers(0, 10)),
                     work=float(rng.uniform(3, 15)),
                     deadline=float(rng.uniform(30, 80)))
            for _ in range(n)]


class TestCloneJob:
    def test_static_fields_copied(self):
        src = make_job(work=7.0, deadline=42.0, min_k=2, max_k=3)
        dup = src.clone_pending()
        assert dup.work == src.work and dup.deadline == src.deadline
        assert dup.min_parallelism == 2 and dup.max_parallelism == 3
        assert dup.affinity == src.affinity
        assert dup.job_id != src.job_id          # fresh identity

    def test_runtime_state_reset(self):
        src = make_job()
        src.progress = 5.0
        src.state = JobState.RUNNING
        src.parallelism = 3
        dup = src.clone_pending()
        assert dup.state is JobState.PENDING
        assert dup.progress == 0.0 and dup.parallelism == 0

    def test_affinity_is_independent_copy(self):
        src = make_job()
        dup = src.clone_pending()
        dup.affinity["cpu"] = 99.0
        assert src.affinity["cpu"] != 99.0


class TestEvaluateRuns:
    def test_returns_one_sim_per_trace(self, rng):
        traces = [small_trace(rng) for _ in range(3)]
        sims = evaluate_scheduler_runs(EDFScheduler(), PLATFORMS, traces,
                                       max_ticks=200)
        assert len(sims) == 3
        assert all(s.is_done() or s.now >= 200 for s in sims)

    def test_source_traces_untouched(self, rng):
        traces = [small_trace(rng)]
        evaluate_scheduler_runs(EDFScheduler(), PLATFORMS, traces, max_ticks=200)
        # Original jobs were cloned, not mutated.
        assert all(j.state is JobState.PENDING for j in traces[0])
        assert all(j.progress == 0.0 for j in traces[0])

    def test_reports_match_runs(self, rng):
        traces = [small_trace(rng) for _ in range(2)]
        sims = evaluate_scheduler_runs(FIFOScheduler(), PLATFORMS, traces,
                                       max_ticks=200)
        reports = evaluate_scheduler(FIFOScheduler(), PLATFORMS, traces,
                                     max_ticks=200)
        for sim, report in zip(sims, reports):
            assert sim.metrics().miss_rate == report.miss_rate
            assert sim.metrics().num_finished == report.num_finished

    def test_fault_models_attach_per_trace(self, rng):
        traces = [small_trace(rng) for _ in range(2)]
        sims = evaluate_scheduler_runs(
            EDFScheduler(), PLATFORMS, traces, max_ticks=200,
            fault_models={"cpu": FaultModel(mtbf=5.0, mttr=3.0)})
        assert all(s.fault_injector is not None for s in sims)
        # Different trace index => different injector seed => independent streams.
        assert sims[0].fault_injector.rng is not sims[1].fault_injector.rng

    def test_power_models_attach(self, rng):
        traces = [small_trace(rng)]
        sims = evaluate_scheduler_runs(
            EDFScheduler(), PLATFORMS, traces, max_ticks=200,
            power_models={"cpu": PowerModel(0.1, 1.0)})
        assert sims[0].energy_meter is not None
        assert sims[0].energy_meter.total_energy > 0

    def test_fault_seed_pairing_across_schedulers(self, rng):
        """Same trace index -> same fault RNG seed for any scheduler."""
        traces = [small_trace(rng)]
        models = {"cpu": FaultModel(mtbf=4.0, mttr=4.0)}

        def fail_times(sched):
            sims = evaluate_scheduler_runs(sched, PLATFORMS, traces,
                                           max_ticks=100, fault_models=models,
                                           fault_seed=77)
            from repro.sim import EventKind

            return [e.time for e in sims[0].log.of_kind(EventKind.FAIL)][:3]

        # Early failures (before policies diverge the occupancy) coincide.
        a = fail_times(EDFScheduler())
        b = fail_times(EDFScheduler())
        assert a == b

    def test_drop_on_miss_flag_propagates(self, rng):
        jobs = [make_job(work=500.0, deadline=5.0)]
        sims = evaluate_scheduler_runs(FIFOScheduler(parallelism="min"),
                                       PLATFORMS, [jobs], drop_on_miss=True,
                                       max_ticks=50)
        assert sims[0].config.drop_on_miss
