"""Imitation warm start and the end-to-end training entry point."""

import numpy as np
import pytest

from repro.core import CoreConfig, DRLScheduler, EpisodeFactory, SchedulerEnv
from repro.core.imitation import (
    behavior_clone,
    collect_demonstrations,
    pretrain_value,
    teacher_action,
)
from repro.core.training import evaluate_scheduler, train_scheduler
from repro.rl import PPOConfig, ReinforceConfig
from repro.sim import Platform, Simulation, SimulationConfig
from tests.conftest import make_job


def _trace(seed=0, n=6):
    rng = np.random.default_rng(seed)
    return [
        make_job(
            arrival=int(rng.integers(0, 8)),
            work=float(rng.uniform(2, 12)),
            deadline=float(rng.uniform(15, 60)),
            min_k=1,
            max_k=int(rng.integers(1, 4)),
        )
        for _ in range(n)
    ]


@pytest.fixture
def env(platforms):
    config = CoreConfig(queue_slots=3, running_slots=2, horizon=6,
                        actions_per_tick=3)
    factory = EpisodeFactory(platforms,
                             fixed_traces=[_trace(0), _trace(1)])
    return SchedulerEnv(factory, config=config, max_ticks=120, seed=0)


class TestTeacher:
    def test_teacher_actions_always_valid(self, env):
        env.reset()
        for _ in range(300):
            mask = env.action_mask()
            action = teacher_action(env.sim, env.actions)
            assert mask[action], "teacher proposed a masked action"
            _, _, done, _ = env.step(action)
            if done:
                break

    def test_teacher_admits_when_capacity_available(self, platforms):
        job = make_job(arrival=0, deadline=50.0)
        sim = Simulation(platforms, [job], SimulationConfig(horizon=20))
        from repro.core.actions import SchedulingActionSpace
        space = SchedulingActionSpace(
            CoreConfig(queue_slots=2, running_slots=2, horizon=4),
            ["cpu", "gpu"])
        action = teacher_action(sim, space)
        assert action != space.noop_index
        decoded = space.decode(action)
        assert decoded.kind.value == "admit"

    def test_teacher_noops_on_empty_system(self, platforms):
        sim = Simulation(platforms, [], SimulationConfig(horizon=5))
        from repro.core.actions import SchedulingActionSpace
        space = SchedulingActionSpace(
            CoreConfig(queue_slots=2, running_slots=2, horizon=4),
            ["cpu", "gpu"])
        assert teacher_action(sim, space) == space.noop_index


class TestDemonstrations:
    def test_collect_shapes_consistent(self, env):
        demos = collect_demonstrations(env, episodes=2, gamma=0.9)
        n = demos.obs.shape[0]
        assert demos.actions.shape == (n,)
        assert demos.masks.shape == (n, env.actions.n)
        assert demos.returns.shape == (n,)
        assert len(demos.episode_returns) == 2

    def test_demo_actions_respect_masks(self, env):
        demos = collect_demonstrations(env, episodes=1)
        assert all(demos.masks[i, demos.actions[i]]
                   for i in range(len(demos.actions)))

    def test_invalid_episode_count(self, env):
        with pytest.raises(ValueError):
            collect_demonstrations(env, episodes=0)


class TestBehaviorCloning:
    def test_loss_decreases(self, env, rng):
        from repro.rl.policies import CategoricalPolicy
        demos = collect_demonstrations(env, episodes=3)
        policy = CategoricalPolicy.for_sizes(env.encoder.obs_dim, env.actions.n,
                                             (32,), rng)
        losses = behavior_clone(policy, demos, rng, epochs=10)
        assert losses[-1] < losses[0] * 0.7

    def test_cloned_policy_matches_teacher_often(self, env, rng):
        from repro.rl.policies import CategoricalPolicy
        demos = collect_demonstrations(env, episodes=4)
        policy = CategoricalPolicy.for_sizes(env.encoder.obs_dim, env.actions.n,
                                             (64,), rng)
        behavior_clone(policy, demos, rng, epochs=25)
        agree = 0
        for i in range(len(demos.actions)):
            p = policy.probs(demos.obs[i], masks=demos.masks[i][None, :])[0]
            agree += int(np.argmax(p) == demos.actions[i])
        assert agree / len(demos.actions) > 0.75

    def test_value_pretraining_reduces_mse(self, env, rng):
        from repro.rl.policies import ValueFunction
        demos = collect_demonstrations(env, episodes=3)
        vf = ValueFunction.for_sizes(env.encoder.obs_dim, (32,), rng)
        losses = pretrain_value(vf, demos, rng, epochs=30)
        assert losses[-1] < losses[0] * 0.8


class TestTrainScheduler:
    def test_ppo_end_to_end_tiny(self, env, platforms):
        result = train_scheduler(env, algo="ppo", iterations=2,
                                 episodes_per_iter=2,
                                 algo_config=PPOConfig(hidden=(32,),
                                                       minibatch_size=64),
                                 seed=0)
        assert result.scheduler is not None
        assert len(result.history) == 2
        reports = evaluate_scheduler(result.scheduler, platforms,
                                     [_trace(5)], max_ticks=150)
        assert len(reports) == 1
        assert 0.0 <= reports[0].miss_rate <= 1.0

    def test_warm_start_changes_initial_policy(self, env):
        r_cold = train_scheduler(env, algo="ppo", iterations=1,
                                 episodes_per_iter=1,
                                 algo_config=PPOConfig(hidden=(16,)),
                                 seed=0, warm_start=False)
        env2 = SchedulerEnv(env.factory, config=env.config, max_ticks=120, seed=0)
        r_warm = train_scheduler(env2, algo="ppo", iterations=1,
                                 episodes_per_iter=1,
                                 algo_config=PPOConfig(hidden=(16,)),
                                 seed=0, warm_start=True,
                                 warm_start_episodes=2)
        p_cold = r_cold.agent.policy.params()[0]
        p_warm = r_warm.agent.policy.params()[0]
        assert not np.allclose(p_cold, p_warm)

    def test_validation_selection_returns_best(self, env, platforms):
        val = [_trace(9)]
        result = train_scheduler(env, algo="ppo", iterations=2,
                                 episodes_per_iter=1,
                                 algo_config=PPOConfig(hidden=(16,)),
                                 seed=0, val_traces=val, eval_every=1)
        assert result.best_val_miss is not None
        assert 0.0 <= result.best_val_miss <= 1.0

    def test_reinforce_also_supported(self, env):
        result = train_scheduler(env, algo="reinforce", iterations=1,
                                 episodes_per_iter=2,
                                 algo_config=ReinforceConfig(hidden=(16,)),
                                 seed=0)
        assert result.scheduler is not None

    def test_unknown_algo_rejected(self, env):
        with pytest.raises(ValueError, match="unknown algo"):
            train_scheduler(env, algo="sac")


class TestDRLSchedulerAdapter:
    def test_schedules_via_policy(self, env, platforms, rng):
        from repro.rl.policies import CategoricalPolicy
        policy = CategoricalPolicy.for_sizes(env.encoder.obs_dim, env.actions.n,
                                             (16,), rng)
        sched = DRLScheduler(policy, env.config, ["cpu", "gpu"], greedy=False,
                             rng=rng)
        sim = Simulation(platforms, _trace(3), SimulationConfig(horizon=150))
        report = sim.run_policy(sched, max_ticks=150)
        assert report.num_jobs > 0

    def test_respects_action_budget(self, env, platforms, rng):
        from repro.rl.policies import CategoricalPolicy
        policy = CategoricalPolicy.for_sizes(env.encoder.obs_dim, env.actions.n,
                                             (16,), rng)
        sched = DRLScheduler(policy, env.config, ["cpu", "gpu"], greedy=False,
                             rng=rng)
        sim = Simulation(platforms, _trace(4, n=12), SimulationConfig(horizon=150))
        sched.schedule(sim)   # must terminate within the budget
