"""On-policy rollout storage, episode collection and the agent skeleton.

:class:`OnPolicyAgent` is everything REINFORCE, A2C and PPO do alike:
acting, serial episode collection (:meth:`~OnPolicyAgent.collect_episode`)
or batched collection through a :class:`~repro.rl.vec_env.VecEnv`
(:func:`collect_vec_episodes`), the training loop, and GAE advantages
over a batch of episodes. Each agent adds only its ``update`` rule
(REINFORCE also a constructor: it builds a value function only for its
value baseline). The one difference in how they collect is the class
constant ``records_values``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING, Union

import numpy as np

from repro.nn.optim import Adam
from repro.nn.utils import clip_gradients_
from repro.rl.env import Env
from repro.rl.policies import CategoricalPolicy, ValueFunction
from repro.rl.returns import gae_advantages

if TYPE_CHECKING:  # pragma: no cover
    from repro.rl.vec_env import VecEnv

__all__ = ["Transition", "RolloutBuffer", "OnPolicyAgent", "collect_vec_episodes"]


@dataclass(frozen=True)
class Transition:
    """One environment step as stored during a rollout."""

    obs: np.ndarray
    action: int
    reward: float
    done: bool
    log_prob: float
    value: float = 0.0
    mask: Optional[np.ndarray] = None


class RolloutBuffer:
    """Accumulates transitions for one or more episodes, then batches them.

    ``episodes()`` yields per-episode slices (returns and advantages are
    per-episode recurrences); ``batch()`` stacks every transition into
    the flat arrays an agent's ``update`` trains on.
    """

    def __init__(self) -> None:
        self._transitions: List[Transition] = []
        self._episode_bounds: List[int] = [0]

    def add(self, transition: Transition) -> None:
        self._transitions.append(transition)
        if transition.done:
            self._episode_bounds.append(len(self._transitions))

    def end_episode(self) -> None:
        """Force an episode boundary (for truncated, non-done episodes)."""
        if self._episode_bounds[-1] != len(self._transitions):
            self._episode_bounds.append(len(self._transitions))

    def __len__(self) -> int:
        return len(self._transitions)

    @property
    def num_episodes(self) -> int:
        return len(self._episode_bounds) - 1

    def episodes(self) -> List[List[Transition]]:
        """Per-episode transition lists (trailing partial episode included)."""
        bounds = list(self._episode_bounds)
        if bounds[-1] != len(self._transitions):
            bounds.append(len(self._transitions))
        return [
            self._transitions[bounds[i] : bounds[i + 1]]
            for i in range(len(bounds) - 1)
            if bounds[i + 1] > bounds[i]
        ]

    def batch(self) -> Dict[str, np.ndarray]:
        """Flat arrays over every stored transition."""
        if not self._transitions:
            raise ValueError("empty rollout buffer")
        obs = np.stack([t.obs for t in self._transitions])
        masks = None
        if self._transitions[0].mask is not None:
            masks = np.stack([t.mask for t in self._transitions])
        return {
            "obs": obs,
            "actions": np.array([t.action for t in self._transitions], dtype=np.intp),
            "rewards": np.array([t.reward for t in self._transitions]),
            "dones": np.array([t.done for t in self._transitions], dtype=bool),
            "log_probs": np.array([t.log_prob for t in self._transitions]),
            "values": np.array([t.value for t in self._transitions]),
            "masks": masks,
        }

    def clear(self) -> None:
        self._transitions.clear()
        self._episode_bounds = [0]


def collect_vec_episodes(
    agent,
    vec_env: "VecEnv",
    buffer: RolloutBuffer,
    episodes: int,
    max_steps: int,
    with_values: bool = True,
    greedy: bool = False,
) -> List[float]:
    """Collect ``episodes`` completed episodes through a vectorized env.

    Steps all environments in lockstep with **batched** action selection
    (one policy forward + one RNG draw per step for the whole batch).
    Value estimates, when requested, are computed *deferred*: one batched
    ``value_fn.predict`` over each completed episode instead of a
    one-row forward per step — identical numbers, a fraction of the cost,
    because the networks do not change during collection.

    Completed episodes are flushed to ``buffer`` in completion order; the
    partial episodes still in flight when the quota is reached are
    discarded (they would otherwise bias the batch toward early-episode
    states). An episode hitting ``max_steps`` is truncated exactly like
    :meth:`OnPolicyAgent.collect_episode` truncates (buffer boundary
    without a terminal flag) and its environment is reset.

    Returns the per-episode undiscounted returns, in completion order.
    """
    policy = agent.policy
    value_fn = getattr(agent, "value_fn", None) if with_values else None
    num = vec_env.num_envs
    obs = vec_env.reset()
    # One (obs, action, reward, logp, mask) tuple appended per env per
    # step; all scalar conversions and Transition construction happen at
    # episode flush so the per-step loop stays lean.
    trajectories: List[List[tuple]] = [[] for _ in range(num)]
    returns: List[float] = []

    def flush(i: int, done: bool) -> None:
        steps_i = trajectories[i]
        if not steps_i:
            return
        if value_fn is not None:
            values = value_fn.predict(np.stack([s[0] for s in steps_i]))
        else:
            values = np.zeros(len(steps_i))
        last = len(steps_i) - 1
        total = 0.0
        for t, (o, a, r, lp, mk) in enumerate(steps_i):
            r = float(r)
            total += r
            buffer.add(Transition(
                obs=o, action=int(a), reward=r, done=done and t == last,
                log_prob=float(lp), value=float(values[t]), mask=mk,
            ))
        if not done:
            buffer.end_episode()
        returns.append(total)
        trajectories[i] = []

    while len(returns) < episodes:
        masks = vec_env.action_masks()
        actions, logps = policy.act_batch(obs, agent.rng, masks=masks,
                                          greedy=greedy)
        next_obs, rewards, dones, _ = vec_env.step(actions)
        for i in range(num):
            traj = trajectories[i]
            traj.append((obs[i], actions[i], rewards[i], logps[i], masks[i]))
            if len(returns) >= episodes:
                continue  # quota met mid-step: don't flush extra episodes
            if dones[i]:
                flush(i, done=True)
            elif len(traj) >= max_steps:
                flush(i, done=False)
                next_obs[i] = vec_env.reset_env(i)
        obs = next_obs
    return returns[:episodes]


class OnPolicyAgent:
    """The skeleton REINFORCE, A2C and PPO share; subclasses add ``update``.

    ``records_values`` is the one difference in how they collect: A2C
    and PPO store ``V(s)`` at every step (their GAE targets need it),
    REINFORCE stores ``0.0`` and fits its value baseline, if any, inside
    ``update``. When it is set, the constructor builds the value
    function and its optimizer after the policy.
    """

    records_values: bool

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        config,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.rng = rng
        self.policy = CategoricalPolicy.for_sizes(obs_dim, n_actions, config.hidden, rng)
        self.optimizer = Adam(self.policy.params(), self.policy.grads(), lr=config.lr)
        self.value_fn: Optional[ValueFunction] = None
        self.value_opt: Optional[Adam] = None
        if self.records_values:
            self._add_value_fn(obs_dim)

    def _add_value_fn(self, obs_dim: int) -> None:
        self.value_fn = ValueFunction.for_sizes(obs_dim, self.config.hidden, self.rng)
        self.value_opt = Adam(self.value_fn.params(), self.value_fn.grads(),
                              lr=self.config.value_lr)

    # --- acting -----------------------------------------------------------------
    def act(self, obs: np.ndarray, mask: Optional[np.ndarray] = None,
            greedy: bool = False) -> Tuple[int, float]:
        """Select an action; returns ``(action, log_prob)``."""
        return self.policy.act(obs, self.rng, mask=mask, greedy=greedy)

    def collect_episode(self, env: Env, buffer: RolloutBuffer, max_steps: int) -> float:
        """Roll one episode into ``buffer``; returns the episode return."""
        obs = env.reset()
        total = 0.0
        for _ in range(max_steps):
            mask = env.action_mask()
            action, logp = self.act(obs, mask=mask)
            value = float(self.value_fn.predict(obs)[0]) if self.records_values else 0.0
            next_obs, reward, done, _ = env.step(action)
            buffer.add(Transition(obs=obs, action=action, reward=reward,
                                  done=done, log_prob=logp, value=value, mask=mask))
            total += reward
            obs = next_obs
            if done:
                return total
        buffer.end_episode()
        return total

    # --- learning ---------------------------------------------------------------
    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """One learning step from the collected batch; returns its stats."""
        raise NotImplementedError

    def _gae(self, buffer: RolloutBuffer) -> Tuple[np.ndarray, np.ndarray]:
        """GAE advantages and value targets (advantage + stored value),
        episode by episode, concatenated in buffer order."""
        cfg = self.config
        advantages: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for ep in buffer.episodes():
            values = np.array([t.value for t in ep])
            adv = gae_advantages(np.array([t.reward for t in ep]), values,
                                 cfg.gamma, cfg.gae_lambda)
            advantages.append(adv)
            targets.append(adv + values)
        return np.concatenate(advantages), np.concatenate(targets)

    def _policy_step(self, batch: Dict[str, np.ndarray],
                    advantages: np.ndarray) -> Tuple[float, float, float]:
        """One clipped optimizer step on the policy-gradient loss.

        Returns ``(pg_loss, entropy, grad_norm)``.
        """
        cfg = self.config
        self.policy.zero_grad()
        pg_loss, entropy = self.policy.policy_gradient_step(
            batch["obs"], batch["actions"], advantages, masks=batch["masks"],
            entropy_coef=cfg.entropy_coef,
        )
        grad_norm = clip_gradients_(self.policy.grads(), cfg.max_grad_norm)
        self.optimizer.step()
        return pg_loss, entropy, grad_norm

    def _value_step(self, obs: np.ndarray, targets: np.ndarray) -> float:
        """One clipped optimizer step of ``V(s)`` toward ``targets``; the loss."""
        self.value_fn.zero_grad()
        loss = self.value_fn.mse_step(obs, targets)
        clip_gradients_(self.value_fn.grads(), self.config.max_grad_norm)
        self.value_opt.step()
        return loss

    def train(
        self,
        env: Union[Env, "VecEnv"],
        iterations: int,
        episodes_per_iter: int = 4,
        max_steps: int = 1000,
    ) -> List[Dict[str, float]]:
        """Collect, then update, ``iterations`` times; per-iteration stats.

        ``env`` may be a single environment (serial episode collection)
        or a :class:`~repro.rl.vec_env.VecEnv` (batched lockstep
        collection of the same number of episodes per iteration).
        """
        from repro.rl.vec_env import VecEnv

        history: List[Dict[str, float]] = []
        for _ in range(iterations):
            buffer = RolloutBuffer()
            if isinstance(env, VecEnv):
                ep_returns = collect_vec_episodes(
                    self, env, buffer, episodes_per_iter, max_steps,
                    with_values=self.records_values)
            else:
                ep_returns = [
                    self.collect_episode(env, buffer, max_steps)
                    for _ in range(episodes_per_iter)
                ]
            stats = self.update(buffer)
            stats["episode_return"] = float(np.mean(ep_returns))
            history.append(stats)
        return history
