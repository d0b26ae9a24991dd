"""Cross-module integration: the complete pipeline at miniature scale."""

import numpy as np
import pytest

from repro.baselines import EDFScheduler, baseline_roster
from repro.core import (
    CoreConfig,
    DRLScheduler,
    RewardWeights,
    evaluate_scheduler,
    train_scheduler,
)
from repro.harness import standard_scenario
from repro.rl import PPOConfig
from repro.sim import Platform, Simulation, SimulationConfig
from repro.workload import (
    WorkloadConfig,
    default_job_classes,
    generate_trace,
    load_trace,
    save_trace,
)


@pytest.fixture(scope="module")
def scenario():
    return standard_scenario(
        load=0.6, horizon=25, cpu_capacity=10, gpu_capacity=4,
        core=CoreConfig(queue_slots=4, running_slots=3, horizon=8,
                        actions_per_tick=4,
                        reward=RewardWeights(slowdown=0.05, miss=1.0,
                                             tardiness=0.05, utilization=0.005)),
        max_ticks=180)


class TestWorkloadToSimulator:
    def test_generated_trace_runs_under_every_baseline(self, scenario):
        traces = scenario.traces(2)
        for name, sched in baseline_roster().items():
            reports = evaluate_scheduler(sched, scenario.platforms, traces,
                                         max_ticks=180)
            for rep in reports:
                assert rep.num_jobs == len(traces[0]) or rep.num_jobs == len(traces[1])
                assert 0.0 <= rep.miss_rate <= 1.0
                assert rep.num_finished + rep.num_dropped <= rep.num_jobs

    def test_paired_traces_give_identical_inputs(self, scenario):
        """evaluate_scheduler must clone jobs so traces can be replayed."""
        trace = scenario.traces(1)
        r1 = evaluate_scheduler(EDFScheduler(), scenario.platforms, trace,
                                max_ticks=180)
        r2 = evaluate_scheduler(EDFScheduler(), scenario.platforms, trace,
                                max_ticks=180)
        assert r1[0].miss_rate == r2[0].miss_rate
        assert r1[0].mean_slowdown == r2[0].mean_slowdown

    def test_trace_file_roundtrip_preserves_results(self, scenario, tmp_path):
        trace = scenario.trace(1234)
        path = str(tmp_path / "trace.json")
        save_trace(trace, path)
        loaded = load_trace(path)
        r1 = evaluate_scheduler(EDFScheduler(), scenario.platforms, [trace],
                                max_ticks=180)
        r2 = evaluate_scheduler(EDFScheduler(), scenario.platforms, [loaded],
                                max_ticks=180)
        assert r1[0].miss_rate == r2[0].miss_rate


class TestTrainedPolicyPipeline:
    @pytest.fixture(scope="class")
    def trained(self, scenario):
        train_traces = scenario.traces(3, base_seed=500)
        env = scenario.eval_env(train_traces, seed=0)
        return train_scheduler(
            env, algo="ppo", iterations=3, episodes_per_iter=2,
            algo_config=PPOConfig(hidden=(32,), minibatch_size=64,
                                  lr=1e-4, entropy_coef=0.003),
            seed=0, warm_start=True, warm_start_episodes=3,
        )

    def test_training_produces_scheduler(self, trained):
        assert trained.scheduler is not None
        assert len(trained.history) == 3
        assert all(np.isfinite(h["episode_return"]) for h in trained.history)

    def test_warm_started_policy_schedules_work(self, trained, scenario):
        """Even a miniature warm-started policy must actively schedule:
        most jobs finish, far better than leaving the cluster idle. (The
        heuristic-parity claim is verified at bench scale in E2.)"""
        traces = scenario.traces(2)
        drl = evaluate_scheduler(trained.scheduler, scenario.platforms, traces,
                                 max_ticks=180)
        finished_frac = np.mean([r.num_finished / r.num_jobs for r in drl])
        assert finished_frac >= 0.6
        assert np.mean([r.miss_rate for r in drl]) < 1.0

    def test_policy_checkpoint_roundtrip(self, trained, scenario, tmp_path):
        """The policy file rebuilds the trained scheduler: same report."""
        path = str(tmp_path / "policy.npz")
        trained.scheduler.save(path)
        sched = DRLScheduler.load(path)
        traces = scenario.traces(1)
        a = evaluate_scheduler(trained.scheduler, scenario.platforms, traces,
                               max_ticks=180)
        b = evaluate_scheduler(sched, scenario.platforms, traces, max_ticks=180)
        assert repr(a) == repr(b)


class TestSimulatorConservation:
    def test_all_jobs_accounted_for(self, scenario):
        """finished + dropped + still-in-system == arrived, always."""
        trace = scenario.trace(42)
        sim = Simulation(scenario.platforms,
                         [j for j in trace],
                         SimulationConfig(horizon=60))
        sched = EDFScheduler()
        while not sim.is_done():
            sched.schedule(sim)
            sim.advance_tick()
            arrived = len(trace) - sim.num_future
            in_system = len(sim.pending) + len(sim.running)
            done = len(sim.completed) + len(sim.dropped)
            assert arrived == in_system + done
