"""Dueling Q-network: decomposition identity, gradients, DQN integration."""

import numpy as np
import pytest

from repro.nn.gradcheck import numerical_gradient
from repro.rl import DQNAgent, DQNConfig, DuelingQNet


class TestForward:
    def test_output_shape(self):
        net = DuelingQNet(5, 4, (16,), np.random.default_rng(0))
        q = net.forward(np.random.default_rng(1).normal(size=(7, 5)))
        assert q.shape == (7, 4)

    def test_mean_advantage_identity(self):
        """Q - V has zero mean across actions by construction."""
        rng = np.random.default_rng(0)
        net = DuelingQNet(5, 4, (16, 16), rng)
        x = rng.normal(size=(6, 5))
        h = net.trunk.forward(x)
        v = net.value_head.forward(h)
        q = net.forward(x)
        centered = q - v
        assert np.allclose(centered.mean(axis=1), 0.0, atol=1e-10)

    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden"):
            DuelingQNet(5, 4, (), np.random.default_rng(0))


class TestBackward:
    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        net = DuelingQNet(4, 3, (8,), rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_fn(_unused):
            q = net.forward(x)
            return 0.5 * float(np.sum((q - target) ** 2))

        # Analytic gradients
        net.zero_grad()
        q = net.forward(x)
        net.backward(q - target)
        for p, g in zip(net.params(), net.grads()):
            num = numerical_gradient(loss_fn, p)   # perturbs p in place
            assert np.allclose(g, num, rtol=1e-4, atol=1e-6)

    def test_zero_grad_clears_all_heads(self):
        rng = np.random.default_rng(4)
        net = DuelingQNet(4, 3, (8,), rng)
        x = rng.normal(size=(2, 4))
        net.backward(net.forward(x))
        assert any(np.abs(g).sum() > 0 for g in net.grads())
        net.zero_grad()
        assert all(np.abs(g).sum() == 0 for g in net.grads())

    def test_param_and_grad_counts_align(self):
        net = DuelingQNet(4, 3, (8, 8), np.random.default_rng(5))
        assert len(net.params()) == len(net.grads())
        for p, g in zip(net.params(), net.grads()):
            assert p.shape == g.shape


class _LineWorld:
    """4-state line: action 1 moves right (+1 at the end), action 0 stays."""

    def __init__(self, length=4, horizon=20):
        self.length = length
        self.horizon = horizon
        self.s = 0
        self.t = 0

    @property
    def obs_dim(self):
        return self.length

    @property
    def n_actions(self):
        return 2

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
            self.s = min(self.s + 1, self.length - 1)
        reward = 1.0 if self.s == self.length - 1 else 0.0
        if reward:
            self.s = 0
        return self._obs(), reward, self.t >= self.horizon, {}

    def action_mask(self):
        return np.ones(2, dtype=bool)


class TestDQNIntegration:
    def test_dueling_agent_trains(self):
        env = _LineWorld()
        cfg = DQNConfig(dueling=True, hidden=(16,), warmup_steps=20,
                        batch_size=8, epsilon_decay_steps=200)
        agent = DQNAgent(env.obs_dim, env.n_actions, cfg, np.random.default_rng(0))
        assert isinstance(agent.q_net, DuelingQNet)
        history = agent.train(env, iterations=3, episodes_per_iter=2, max_steps=50)
        assert len(history) == 3

    def test_prioritized_agent_trains_and_updates_priorities(self):
        env = _LineWorld()
        cfg = DQNConfig(prioritized=True, hidden=(16,), warmup_steps=20,
                        batch_size=8, epsilon_decay_steps=200)
        agent = DQNAgent(env.obs_dim, env.n_actions, cfg, np.random.default_rng(0))
        from repro.rl import PrioritizedReplayBuffer

        assert isinstance(agent.buffer, PrioritizedReplayBuffer)
        agent.train(env, iterations=3, episodes_per_iter=2, max_steps=50)
        # After learning, priorities reflect TD errors: not all default 1.0.
        pr = agent.buffer.priorities[: len(agent.buffer)]
        assert not np.allclose(pr, 1.0)

    def test_rainbow_lite_combination(self):
        """double + dueling + prioritized compose without interference."""
        env = _LineWorld()
        cfg = DQNConfig(double_dqn=True, dueling=True, prioritized=True,
                        hidden=(16,), warmup_steps=20, batch_size=8,
                        epsilon_decay_steps=200)
        agent = DQNAgent(env.obs_dim, env.n_actions, cfg, np.random.default_rng(1))
        history = agent.train(env, iterations=4, episodes_per_iter=2, max_steps=50)
        assert all(np.isfinite(h["loss"]) for h in history)
