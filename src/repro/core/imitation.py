"""Imitation warm start: behavior-clone a heuristic teacher, then RL.

Policy-gradient training from scratch on the composite scheduling action
space converges slowly (hundreds of iterations to reach heuristic
parity). The standard remedy in this system's lineage — supervised
pretraining on expert decisions (cf. AlphaGo's SL policy network,
DQfD) — is implemented here:

1. a *teacher* (urgency-driven elastic heuristic, mirroring
   :class:`~repro.baselines.GreedyElasticScheduler`) is expressed directly
   in the flat action space;
2. teacher episodes are rolled through the real environment, recording
   ``(obs, action, mask)`` tuples and per-step rewards;
3. the policy is behavior-cloned with masked cross-entropy, and the value
   function is pre-fit to the teacher's discounted returns;
4. RL fine-tuning (PPO by default) starts from heuristic-level
   performance and improves by exploiting elasticity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.actions import SchedulingActionSpace, level_to_parallelism
from repro.core.views import slot_views
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam
from repro.nn.utils import clip_gradients_
from repro.rl.policies import MASK_VALUE, CategoricalPolicy, ValueFunction
from repro.rl.returns import discounted_returns

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheduler_env import SchedulerEnv
    from repro.sim.job import Job
    from repro.sim.simulation import Simulation

__all__ = [
    "teacher_action",
    "collect_demonstrations",
    "behavior_clone",
    "pretrain_value",
    "warm_start",
    "Demonstrations",
]


def _behind_deadline(sim: "Simulation", job) -> bool:
    """Whether a running job cannot meet its deadline at its current rate
    (read from its slot's columns)."""
    t = sim.tables
    s = job._slot
    remaining = max(0.0, t.work.item(s) - t.progress.item(s))
    return (t.deadline.item(s) - sim.now) < remaining / max(t.rate.item(s), 1e-9)


def teacher_action(
    sim: "Simulation",
    space: SchedulingActionSpace,
    mask: Optional[np.ndarray] = None,
    views: Optional[Tuple[List["Job"], List["Job"]]] = None,
) -> int:
    """The urgency-driven elastic teacher, expressed as a flat action.

    Priority: (1) grow the most urgent running job that is behind its
    deadline; (2) admit the most urgent pending job on its fastest
    feasible platform at the largest feasible parallelism level;
    (3) no-op. ``mask`` and ``views`` take the state's action mask and
    slot views when the caller has them (the environment does).
    """
    if views is None:
        views = slot_views(sim, space.M, space.config.running_slots)
    if mask is None:
        mask = space.mask(sim, views)
    queue, running = views                  # deadline-, slack-ascending
    if space.K:
        for k_slot, job in enumerate(running):
            idx = space._admit_count + k_slot
            if mask[idx] and _behind_deadline(sim, job):
                return idx
    for m, job in enumerate(queue):
        best: Optional[Tuple[float, int]] = None
        for p_i, platform in enumerate(space.platform_names):
            for level in reversed(range(space.L)):
                idx = m * space.P * space.L + p_i * space.L + level
                if not mask[idx]:
                    continue
                k = level_to_parallelism(job, space.config.parallelism_levels[level])
                base = sim.cluster.platforms[platform].base_speed
                rate = job.rate_on(platform, k, base)
                if best is None or rate > best[0]:
                    best = (rate, idx)
                break   # largest feasible level for this platform found
        if best is not None:
            return best[1]
    return space.noop_index


@dataclass
class Demonstrations:
    """Teacher dataset: one row per decision point."""

    obs: np.ndarray
    actions: np.ndarray
    masks: np.ndarray
    returns: np.ndarray       # discounted return from each decision point
    episode_returns: List[float]


def collect_demonstrations(
    env: "SchedulerEnv", episodes: int, gamma: float = 0.99,
) -> Demonstrations:
    """Roll the teacher through ``env`` and record its decisions."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    all_obs: List[np.ndarray] = []
    all_actions: List[int] = []
    all_masks: List[np.ndarray] = []
    all_returns: List[np.ndarray] = []
    episode_returns: List[float] = []
    for _ in range(episodes):
        obs = env.reset()
        rewards: List[float] = []
        done = False
        steps = 0
        while not done and steps < 100_000:
            assert env.sim is not None
            mask = env.action_mask()
            action = teacher_action(env.sim, env.actions, mask, env.views())
            all_obs.append(obs)
            all_actions.append(action)
            all_masks.append(mask)
            obs, reward, done, _ = env.step(action)
            rewards.append(reward)
            steps += 1
        rets = discounted_returns(np.array(rewards), gamma)
        all_returns.append(rets)
        episode_returns.append(float(np.sum(rewards)))
    return Demonstrations(
        obs=np.stack(all_obs),
        actions=np.array(all_actions, dtype=np.intp),
        masks=np.stack(all_masks),
        returns=np.concatenate(all_returns),
        episode_returns=episode_returns,
    )


def behavior_clone(
    policy: CategoricalPolicy,
    demos: Demonstrations,
    rng: np.random.Generator,
    epochs: int = 10,
    batch_size: int = 256,
    lr: float = 1e-3,
    max_grad_norm: float = 5.0,
) -> List[float]:
    """Masked cross-entropy cloning of the teacher's decisions.

    Returns the per-epoch mean loss (monotone decrease is asserted by the
    test suite on a fixed dataset).
    """
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(policy.params(), policy.grads(), lr=lr)
    n = demos.obs.shape[0]
    losses: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits = policy.net.forward(demos.obs[idx])
            logits = np.where(demos.masks[idx], logits, MASK_VALUE)
            loss, dlogits = loss_fn(logits, demos.actions[idx])
            # Invalid actions carry ~0 softmax mass; zero their gradient
            # exactly so the mask shift cannot leak into the parameters.
            dlogits = np.where(demos.masks[idx], dlogits, 0.0)
            policy.zero_grad()
            policy.net.backward(dlogits)
            clip_gradients_(policy.grads(), max_grad_norm)
            optimizer.step()
            total += loss
            batches += 1
        losses.append(total / max(batches, 1))
    return losses


def pretrain_value(
    value_fn: ValueFunction,
    demos: Demonstrations,
    rng: np.random.Generator,
    epochs: int = 10,
    batch_size: int = 256,
    lr: float = 1e-3,
    max_grad_norm: float = 5.0,
) -> List[float]:
    """Fit V(s) to the teacher's discounted returns (critic warm start)."""
    optimizer = Adam(value_fn.params(), value_fn.grads(), lr=lr)
    n = demos.obs.shape[0]
    losses: List[float] = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            value_fn.zero_grad()
            loss = value_fn.mse_step(demos.obs[idx], demos.returns[idx])
            clip_gradients_(value_fn.grads(), max_grad_norm)
            optimizer.step()
            total += loss
            batches += 1
        losses.append(total / max(batches, 1))
    return losses


def warm_start(
    agent,
    env: "SchedulerEnv",
    rng: np.random.Generator,
    episodes: int = 8,
    bc_epochs: int = 15,
    gamma: Optional[float] = None,
) -> Demonstrations:
    """Clone the teacher into ``agent`` (policy + value, where present)."""
    g = gamma if gamma is not None else getattr(agent.config, "gamma", 0.99)
    demos = collect_demonstrations(env, episodes=episodes, gamma=g)
    behavior_clone(agent.policy, demos, rng, epochs=bc_epochs)
    if getattr(agent, "value_fn", None) is not None:
        pretrain_value(agent.value_fn, demos, rng, epochs=bc_epochs)
    return demos
