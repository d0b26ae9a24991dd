"""The scheduling MDP: multi-action ticks, budgets, rewards, episodes."""

import numpy as np
import pytest

from repro.core import CoreConfig, EpisodeFactory, SchedulerEnv
from repro.core.reward import RewardWeights
from repro.sim import Platform
from tests.conftest import make_job


def _trace():
    return [make_job(arrival=0, work=4.0, deadline=30.0, min_k=1, max_k=2),
            make_job(arrival=1, work=6.0, deadline=40.0, min_k=1, max_k=2)]


@pytest.fixture
def env(platforms):
    config = CoreConfig(queue_slots=3, running_slots=2, horizon=6,
                        actions_per_tick=3)
    factory = EpisodeFactory(platforms, fixed_traces=[_trace()])
    return SchedulerEnv(factory, config=config, max_ticks=80, seed=0)


class TestReset:
    def test_reset_returns_valid_obs(self, env):
        obs = env.reset()
        assert obs.shape == (env.encoder.obs_dim,)
        # Every observation, not only the first, lies within +-clip.
        for _ in range(20):
            assert np.all(np.abs(obs) <= env.encoder.clip)
            obs, _, done, _ = env.step(env.actions.noop_index)
            if done:
                break

    def test_methods_require_reset(self, env):
        with pytest.raises(RuntimeError):
            env.step(0)
        with pytest.raises(RuntimeError):
            env.action_mask()

    def test_fixed_traces_replay_fresh_jobs(self, env):
        env.reset()
        first = set(env.sim._all_jobs)
        env.reset()
        assert first.isdisjoint(env.sim._all_jobs)   # cloned, not reused

    def test_factory_validation(self, platforms):
        with pytest.raises(ValueError):
            EpisodeFactory(platforms)
        with pytest.raises(ValueError):
            EpisodeFactory(platforms, fixed_traces=[])
        with pytest.raises(ValueError):
            EpisodeFactory(platforms, trace_factory=lambda r: [],
                           fixed_traces=[_trace()])


class TestStepSemantics:
    def test_action_then_zero_reward_until_noop(self, env):
        env.reset()
        mask = env.action_mask()
        admit = int(np.flatnonzero(mask[:-1])[0])
        _, reward, done, _ = env.step(admit)
        assert reward == 0.0 and not done

    def test_noop_advances_time_and_scores(self, env):
        env.reset()
        t_before = env.sim.now
        _, reward, _, _ = env.step(env.actions.noop_index)
        assert env.sim.now == t_before + 1
        assert reward != 0.0 or not env.sim.pending   # shaping is negative with jobs present

    def test_budget_forces_advance(self, env):
        env.reset()
        # Take valid non-noop actions until the budget forces a tick.
        advanced = False
        for _ in range(env.config.actions_per_tick):
            mask = env.action_mask()
            nonnoop = np.flatnonzero(mask[:-1])
            if nonnoop.size == 0:
                break
            t_before = env.sim.now
            env.step(int(nonnoop[0]))
            if env.sim.now > t_before:
                advanced = True
                break
        # Either we ran out of valid actions (fine) or the budget advanced time.
        if advanced:
            assert env._actions_this_tick == 0

    def test_episode_terminates_and_reports_metrics(self, env):
        env.reset()
        done = False
        info = {}
        for _ in range(2000):
            mask = env.action_mask()
            valid = np.flatnonzero(mask)
            action = int(valid[0]) if valid[0] != env.actions.noop_index else env.actions.noop_index
            _, _, done, info = env.step(action)
            if done:
                break
        assert done
        assert "metrics" in info
        assert info["metrics"].num_jobs == 2

    def test_miss_penalty_fires_on_deadline_cross(self, platforms):
        config = CoreConfig(
            queue_slots=2, running_slots=1, horizon=4, actions_per_tick=2,
            reward=RewardWeights(slowdown=0.0, miss=1.0, tardiness=0.0,
                                 utilization=0.0))
        trace = [make_job(arrival=0, deadline=2.0, work=50.0, weight=3.0)]
        env = SchedulerEnv(EpisodeFactory(platforms, fixed_traces=[trace]),
                           config=config, max_ticks=10, seed=0)
        env.reset()
        rewards = []
        for _ in range(5):
            _, r, done, _ = env.step(env.actions.noop_index)
            rewards.append(r)
            if done:
                break
        # deadline 2.0 crossed when now reaches 3 => third tick, weight 3
        assert min(rewards) == pytest.approx(-3.0)
        assert sum(r < 0 for r in rewards) == 1   # penalty exactly once

    def test_invalid_action_raises(self, env):
        env.reset()
        mask = env.action_mask()
        invalid = np.flatnonzero(~mask)
        if invalid.size:
            with pytest.raises(ValueError):
                env.step(int(invalid[0]))

    def test_mask_matches_action_space(self, env):
        env.reset()
        assert np.array_equal(env.action_mask(), env.actions.mask(env.sim))

    def test_sampling_mode_uses_trace_factory(self, platforms):
        calls = []

        def factory(rng):
            calls.append(1)
            return _trace()

        env = SchedulerEnv(EpisodeFactory(platforms, trace_factory=factory),
                           config=CoreConfig(queue_slots=2, running_slots=1,
                                             horizon=4), seed=0)
        env.reset()
        env.reset()
        assert len(calls) == 2

    def test_seeded_reset_reproducible(self, platforms):
        def factory(rng):
            work = float(rng.uniform(2, 10))
            return [make_job(arrival=0, work=work, deadline=50.0)]

        env = SchedulerEnv(EpisodeFactory(platforms, trace_factory=factory),
                           config=CoreConfig(queue_slots=2, running_slots=1,
                                             horizon=4), seed=0)
        env.reset(seed=42)
        w1 = env.sim.pending[0].work
        env.reset(seed=42)
        w2 = env.sim.pending[0].work
        assert w1 == w2
