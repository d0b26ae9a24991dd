"""All four agents must learn small MDPs; configs must validate.

The chain MDP used here has a known optimal return, so "learns" is an
objective statement: final performance must approach it and clearly beat
the initial random policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import (
    A2CAgent,
    A2CConfig,
    DQNAgent,
    DQNConfig,
    PPOAgent,
    PPOConfig,
    ReinforceAgent,
    ReinforceConfig,
)
from repro.rl.env import Env


class ChainEnv(Env):
    """5-state chain: action 1 advances, action 0 resets to the start.

    +1 reward on reaching the end (then restart); 30-step episodes; the
    optimal return is 7 (one reward per 4 forward moves).
    """

    def __init__(self, length=5, horizon=30):
        self.length = length
        self.horizon = horizon
        self.s = 0
        self.t = 0

    def _obs(self):
        obs = np.zeros(self.length)
        obs[self.s] = 1.0
        return obs

    def reset(self, seed=None):
        self.s = 0
        self.t = 0
        return self._obs()

    def step(self, action):
        self.t += 1
        if action == 1:
            self.s += 1
        else:
            self.s = 0
        reward = 0.0
        if self.s == self.length - 1:
            reward = 1.0
            self.s = 0
        return self._obs(), reward, self.t >= self.horizon, {}

    def action_mask(self):
        return np.ones(2, dtype=bool)


class MaskedBanditEnv(Env):
    """3-armed bandit where arm 2 is always masked; arm 1 pays 1."""

    def __init__(self):
        self.t = 0

    def reset(self, seed=None):
        self.t = 0
        return np.zeros(1)

    def step(self, action):
        assert action != 2, "agent took a masked action"
        self.t += 1
        return np.zeros(1), float(action == 1), self.t >= 10, {}

    def action_mask(self):
        return np.array([True, True, False])


OPTIMAL = 7.0


def _learned(history, threshold=0.7):
    tail = np.mean([h["episode_return"] for h in history[-5:]])
    return tail >= threshold * OPTIMAL


class TestAgentsLearnChain:
    def test_reinforce_value_baseline(self):
        agent = ReinforceAgent(5, 2, ReinforceConfig(hidden=(32,), lr=1e-2,
                                                     value_lr=1e-2),
                               np.random.default_rng(1))
        history = agent.train(ChainEnv(), iterations=40, episodes_per_iter=5,
                              max_steps=30)
        assert _learned(history)

    def test_reinforce_time_baseline(self):
        agent = ReinforceAgent(5, 2, ReinforceConfig(hidden=(32,), lr=1e-2,
                                                     baseline="time"),
                               np.random.default_rng(2))
        history = agent.train(ChainEnv(), iterations=40, episodes_per_iter=5,
                              max_steps=30)
        assert _learned(history)

    def test_a2c(self):
        agent = A2CAgent(5, 2, A2CConfig(hidden=(32,), lr=1e-2, value_lr=1e-2),
                         np.random.default_rng(3))
        history = agent.train(ChainEnv(), iterations=40, episodes_per_iter=5,
                              max_steps=30)
        assert _learned(history)

    def test_ppo(self):
        agent = PPOAgent(5, 2, PPOConfig(hidden=(32,), lr=1e-2, value_lr=1e-2,
                                         minibatch_size=32),
                         np.random.default_rng(4))
        history = agent.train(ChainEnv(), iterations=40, episodes_per_iter=5,
                              max_steps=30)
        assert _learned(history)

    def test_dqn(self):
        agent = DQNAgent(5, 2, DQNConfig(hidden=(32,), warmup_steps=100,
                                         epsilon_decay_steps=2000,
                                         target_update_every=100, lr=1e-3),
                         np.random.default_rng(5))
        history = agent.train(ChainEnv(), iterations=40, episodes_per_iter=5,
                              max_steps=30)
        assert _learned(history, threshold=0.6)


class TestMaskHandling:
    """Masked actions must never reach the environment (the env asserts)."""

    @pytest.mark.parametrize("agent_cls,config", [
        (ReinforceAgent, ReinforceConfig(hidden=(8,))),
        (A2CAgent, A2CConfig(hidden=(8,))),
        (PPOAgent, PPOConfig(hidden=(8,), minibatch_size=16)),
        (DQNAgent, DQNConfig(hidden=(8,), warmup_steps=10)),
    ], ids=["reinforce", "a2c", "ppo", "dqn"])
    def test_never_takes_masked_action(self, agent_cls, config):
        agent = agent_cls(1, 3, config, np.random.default_rng(0))
        agent.train(MaskedBanditEnv(), iterations=5, episodes_per_iter=3,
                    max_steps=10)

    def test_env_states_its_own_mask(self):
        """The protocol has no default mask: each environment states its
        own, and the chain's two actions are always both valid."""
        with pytest.raises(NotImplementedError):
            Env().action_mask()
        assert ChainEnv().action_mask().tolist() == [True, True]
        assert MaskedBanditEnv().action_mask().tolist() == [True, True, False]


class TestConfigValidation:
    def test_reinforce_bad_baseline(self):
        with pytest.raises(ValueError):
            ReinforceConfig(baseline="nope")

    def test_ppo_bad_clip(self):
        with pytest.raises(ValueError):
            PPOConfig(clip_eps=0.0)

    def test_ppo_bad_epochs(self):
        with pytest.raises(ValueError):
            PPOConfig(epochs=0)


class TestDQNInternals:
    def test_epsilon_anneals(self):
        agent = DQNAgent(2, 2, DQNConfig(epsilon_start=1.0, epsilon_end=0.1,
                                         epsilon_decay_steps=100),
                         np.random.default_rng(0))
        assert agent.epsilon() == pytest.approx(1.0)
        agent.total_env_steps = 100
        assert agent.epsilon() == pytest.approx(0.1)
        agent.total_env_steps = 1000
        assert agent.epsilon() == pytest.approx(0.1)

    @given(start=st.floats(0.0, 1.0), end=st.floats(0.0, 1.0),
           decay_steps=st.integers(0, 5_000), env_steps=st.integers(0, 20_000))
    @settings(max_examples=60, deadline=None)
    def test_epsilon_matches_closed_form(self, start, end, decay_steps,
                                         env_steps):
        """``epsilon()`` is bit for bit ``start + min(1, t / max(steps,
        1)) * (end - start)``, a zero ``epsilon_decay_steps`` included."""
        agent = DQNAgent(2, 2, DQNConfig(hidden=(4,), epsilon_start=start,
                                         epsilon_end=end,
                                         epsilon_decay_steps=decay_steps),
                         np.random.default_rng(0))
        agent.total_env_steps = env_steps
        frac = min(1.0, env_steps / max(decay_steps, 1))
        assert agent.epsilon() == start + frac * (end - start)

    def test_target_sync_copies_params(self):
        agent = DQNAgent(2, 2, DQNConfig(hidden=(8,)), np.random.default_rng(0))
        for p in agent.q_net.params():
            p += 1.0
        agent._sync_target()
        for tp, p in zip(agent.target_net.params(), agent.q_net.params()):
            assert np.array_equal(tp, p)

    def test_greedy_act_uses_mask(self, rng):
        agent = DQNAgent(2, 3, DQNConfig(hidden=(8,)), rng)
        mask = np.array([False, True, False])
        action, _ = agent.act(np.zeros(2), mask=mask, greedy=True)
        assert action == 1
