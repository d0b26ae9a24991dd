"""All three agents must learn small MDPs; configs must validate.

The chain MDP used here has a known optimal return, so "learns" is an
objective statement: final performance must approach it and clearly beat
the initial random policy.
"""

import numpy as np
import pytest

from repro.rl import (
    A2CAgent,
    A2CConfig,
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


class TestMaskHandling:
    """Masked actions must never reach the environment (the env asserts)."""

    @pytest.mark.parametrize("agent_cls,config", [
        (ReinforceAgent, ReinforceConfig(hidden=(8,))),
        (A2CAgent, A2CConfig(hidden=(8,))),
        (PPOAgent, PPOConfig(hidden=(8,), minibatch_size=16)),
    ], ids=["reinforce", "a2c", "ppo"])
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
