"""Deep Q-Network with experience replay and a target network.

Included as the value-based comparator in experiment E12 — the literature
(and our reproduction) finds value-based methods weaker than policy
gradient on large masked composite action spaces, and E12 verifies that
shape holds here too. The Rainbow-lineage extensions (double targets,
dueling heads, prioritized replay) are individually switchable so their
contribution can be ablated.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers import Dense, Layer, Sequential, mlp
from repro.nn.losses import HuberLoss
from repro.nn.optim import Adam
from repro.nn.utils import clip_gradients_
from repro.rl.env import Env
from repro.rl.policies import MASK_VALUE
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.replay import ReplayBuffer
from repro.rl.schedules import LinearSchedule

__all__ = ["DQNConfig", "DQNAgent", "DuelingQNet"]


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters for :class:`DQNAgent`."""

    gamma: float = 0.99
    lr: float = 5e-4
    batch_size: int = 64
    buffer_capacity: int = 50_000
    target_update_every: int = 250      # gradient steps between target syncs
    train_every: int = 1                # env steps between gradient steps
    warmup_steps: int = 500
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 5_000
    double_dqn: bool = True
    dueling: bool = False
    prioritized: bool = False
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_steps: int = 100_000
    max_grad_norm: float = 10.0
    hidden: Tuple[int, ...] = (64, 64)


class DuelingQNet(Layer):
    """Dueling architecture: shared trunk, value + advantage streams.

    ``Q(s, a) = V(s) + A(s, a) - mean_a A(s, a)`` (the average-combined
    form of Wang et al., 2016, which is the stable variant). Implements
    the :class:`~repro.nn.layers.Layer` protocol so the optimizer and
    (de)serialization treat it like any Sequential.
    """

    def __init__(self, obs_dim: int, n_actions: int, hidden: Tuple[int, ...],
                 rng: np.random.Generator) -> None:
        if not hidden:
            raise ValueError("dueling net needs at least one hidden layer")
        self.trunk = mlp([obs_dim, *hidden], rng, activation="relu",
                         out_activation="relu")
        self.value_head = Dense(hidden[-1], 1, rng)
        self.adv_head = Dense(hidden[-1], n_actions, rng)
        self.n_actions = n_actions

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.trunk.forward(x)
        v = self.value_head.forward(h)                     # (B, 1)
        a = self.adv_head.forward(h)                       # (B, A)
        return v + a - a.mean(axis=1, keepdims=True)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        # dQ/dA_j = grad_j - mean_k grad_k ; dQ/dV = sum_j grad_j
        da = grad_out - grad_out.mean(axis=1, keepdims=True)
        dv = grad_out.sum(axis=1, keepdims=True)
        dh = self.adv_head.backward(da) + self.value_head.backward(dv)
        return self.trunk.backward(dh)

    def params(self) -> List[np.ndarray]:
        return self.trunk.params() + self.value_head.params() + self.adv_head.params()

    def grads(self) -> List[np.ndarray]:
        return self.trunk.grads() + self.value_head.grads() + self.adv_head.grads()


class DQNAgent:
    """(Double) DQN over masked discrete actions."""

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        config: DQNConfig,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.rng = rng
        self.n_actions = n_actions
        if config.dueling:
            self.q_net: Layer = DuelingQNet(obs_dim, n_actions, config.hidden, rng)
        else:
            self.q_net = mlp([obs_dim, *config.hidden, n_actions], rng,
                             activation="relu")
        self.target_net: Layer = copy.deepcopy(self.q_net)
        self.optimizer = Adam(self.q_net.params(), self.q_net.grads(), lr=config.lr)
        self.loss_fn = HuberLoss()
        if config.prioritized:
            self.buffer = PrioritizedReplayBuffer(
                config.buffer_capacity, obs_dim, n_actions,
                alpha=config.per_alpha,
                beta=LinearSchedule(config.per_beta_start, 1.0,
                                    config.per_beta_steps),
            )
        else:
            self.buffer = ReplayBuffer(config.buffer_capacity, obs_dim, n_actions)
        self._epsilon = LinearSchedule(config.epsilon_start, config.epsilon_end,
                                       max(config.epsilon_decay_steps, 1))
        self.total_env_steps = 0
        self.total_grad_steps = 0

    # --- acting -----------------------------------------------------------------
    def epsilon(self) -> float:
        """Linearly-annealed exploration rate."""
        return self._epsilon(self.total_env_steps)

    def q_values(self, obs: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Masked Q-values for one observation."""
        q = self.q_net.forward(np.atleast_2d(obs))[0]
        if mask is not None:
            q = np.where(mask, q, MASK_VALUE)
        return q

    def act(self, obs: np.ndarray, mask: Optional[np.ndarray] = None,
            greedy: bool = False) -> Tuple[int, float]:
        """Epsilon-greedy action; returns ``(action, 0.0)`` (no log-prob)."""
        if not greedy and self.rng.random() < self.epsilon():
            if mask is None:
                return int(self.rng.integers(self.n_actions)), 0.0
            valid = np.flatnonzero(mask)
            return int(self.rng.choice(valid)), 0.0
        return int(np.argmax(self.q_values(obs, mask))), 0.0

    def act_batch(self, obs: np.ndarray, masks: np.ndarray,
                  greedy: bool = False) -> np.ndarray:
        """Epsilon-greedy actions for a batch of observations.

        One Q-network forward serves the whole batch; exploration is
        drawn per row. Returns an ``(B,)`` action array.
        """
        q = self.q_net.forward(np.atleast_2d(obs))
        q = np.where(masks, q, MASK_VALUE)
        actions = np.argmax(q, axis=1)
        if not greedy:
            explore = self.rng.random(actions.shape[0]) < self.epsilon()
            for i in np.flatnonzero(explore):
                actions[i] = int(self.rng.choice(np.flatnonzero(masks[i])))
        return actions.astype(np.intp)

    # --- learning ---------------------------------------------------------------
    def _sync_target(self) -> None:
        for tp, p in zip(self.target_net.params(), self.q_net.params()):
            tp[...] = p

    def learn_step(self) -> Optional[float]:
        """One gradient step from replay; returns loss (None if warming up)."""
        cfg = self.config
        if len(self.buffer) < max(cfg.batch_size, cfg.warmup_steps):
            return None
        batch = self.buffer.sample(cfg.batch_size, self.rng)
        next_q_target = self.target_net.forward(batch["next_obs"])
        next_q_target = np.where(batch["next_masks"], next_q_target, MASK_VALUE)
        if cfg.double_dqn:
            next_q_online = self.q_net.forward(batch["next_obs"])
            next_q_online = np.where(batch["next_masks"], next_q_online, MASK_VALUE)
            best = np.argmax(next_q_online, axis=1)
            next_values = next_q_target[np.arange(cfg.batch_size), best]
        else:
            next_values = next_q_target.max(axis=1)
        targets = batch["rewards"] + cfg.gamma * next_values * (~batch["dones"])

        q_all = self.q_net.forward(batch["obs"])
        idx = np.arange(cfg.batch_size)
        pred = q_all[idx, batch["actions"]].reshape(-1, 1)
        loss, grad_pred = self.loss_fn(pred, targets.reshape(-1, 1))
        weights = batch.get("weights")
        if weights is not None:
            # Importance-sampling correction for prioritized replay; the
            # fresh TD errors become the next priorities.
            grad_pred = grad_pred * weights.reshape(-1, 1)
            self.buffer.update_priorities(batch["indices"],
                                          (pred - targets.reshape(-1, 1)).ravel())
        dq = np.zeros_like(q_all)
        dq[idx, batch["actions"]] = grad_pred.ravel()
        self.q_net.zero_grad()
        self.q_net.backward(dq)
        clip_gradients_(self.q_net.grads(), cfg.max_grad_norm)
        self.optimizer.step()

        self.total_grad_steps += 1
        if self.total_grad_steps % cfg.target_update_every == 0:
            self._sync_target()
        return loss

    def train(
        self,
        env: Env,
        iterations: int,
        episodes_per_iter: int = 4,
        max_steps: int = 1000,
    ) -> List[Dict[str, float]]:
        """Env-interleaved training loop matching the on-policy agents' API.

        ``env`` may also be a :class:`~repro.rl.vec_env.VecEnv`: the same
        number of episodes per iteration is then gathered by stepping the
        batch in lockstep with batched action selection, pushing every
        transition into replay.
        """
        from repro.rl.vec_env import VecEnv

        if isinstance(env, VecEnv):
            return self._train_vec(env, iterations, episodes_per_iter, max_steps)
        history: List[Dict[str, float]] = []
        for _ in range(iterations):
            ep_returns = []
            losses = []
            for _ in range(episodes_per_iter):
                obs = env.reset()
                total = 0.0
                for _ in range(max_steps):
                    mask = env.action_mask()
                    action, _ = self.act(obs, mask=mask)
                    next_obs, reward, done, _ = env.step(action)
                    next_mask = (
                        env.action_mask() if not done
                        else np.ones(self.n_actions, dtype=bool)
                    )
                    self.buffer.add(obs, action, reward, next_obs, done, next_mask)
                    self.total_env_steps += 1
                    if self.total_env_steps % self.config.train_every == 0:
                        loss = self.learn_step()
                        if loss is not None:
                            losses.append(loss)
                    total += reward
                    obs = next_obs
                    if done:
                        break
                ep_returns.append(total)
            history.append({
                "episode_return": float(np.mean(ep_returns)),
                "loss": float(np.mean(losses)) if losses else 0.0,
                "epsilon": self.epsilon(),
            })
        return history

    def _train_vec(self, vec_env, iterations: int, episodes_per_iter: int,
                   max_steps: int) -> List[Dict[str, float]]:
        """Lockstep-batched variant of the training loop."""
        num = vec_env.num_envs
        ones = np.ones(self.n_actions, dtype=bool)
        history: List[Dict[str, float]] = []
        for _ in range(iterations):
            ep_returns: List[float] = []
            losses: List[float] = []
            obs = vec_env.reset()
            masks = vec_env.action_masks()
            totals = np.zeros(num)
            steps = np.zeros(num, dtype=int)
            while len(ep_returns) < episodes_per_iter:
                actions = self.act_batch(obs, masks)
                next_obs, rewards, dones, _ = vec_env.step(actions)
                next_masks = vec_env.action_masks()
                truncated = False
                for i in range(num):
                    # Terminal next-masks are unused by the target (the
                    # done flag zeroes the bootstrap), mirror the serial
                    # loop's all-ones placeholder.
                    next_mask = ones if dones[i] else next_masks[i]
                    self.buffer.add(obs[i], int(actions[i]), float(rewards[i]),
                                    next_obs[i], bool(dones[i]), next_mask)
                    self.total_env_steps += 1
                    if self.total_env_steps % self.config.train_every == 0:
                        loss = self.learn_step()
                        if loss is not None:
                            losses.append(loss)
                    totals[i] += rewards[i]
                    steps[i] += 1
                    if dones[i] or steps[i] >= max_steps:
                        ep_returns.append(float(totals[i]))
                        totals[i] = 0.0
                        steps[i] = 0
                        if not dones[i]:  # truncation: force a fresh episode
                            next_obs[i] = vec_env.reset_env(i)
                            truncated = True
                if truncated:
                    next_masks = vec_env.action_masks()
                obs, masks = next_obs, next_masks
            history.append({
                "episode_return": float(np.mean(ep_returns[:episodes_per_iter])),
                "loss": float(np.mean(losses)) if losses else 0.0,
                "epsilon": self.epsilon(),
            })
        return history
