"""Vectorized environment: N scheduler MDPs stepped as one batch.

``VecEnv`` runs ``B`` :class:`~repro.core.scheduler_env.SchedulerEnv`
instances in lockstep and exposes batched ``reset`` / ``step`` /
``action_masks`` returning stacked arrays. The throughput win over ``B``
serial episodes comes from batching everything that is batchable:

* **one** policy-network forward (and one RNG draw) serves all ``B``
  action selections — see :meth:`CategoricalPolicy.act_batch`;
* observations are encoded through
  :meth:`StateEncoder.encode_batch` and masks through
  :meth:`SchedulingActionSpace.mask_batch`, amortizing the fixed numpy
  cost (allocation, clipping) across the batch;
* each environment computes its state's ``(queue, running)`` slot
  views once (:meth:`SchedulerEnv.views`) for its observation, its mask
  and the action applied;
* value estimates for GAE are deferred and computed in one batched
  forward per episode instead of one tiny forward per step — see
  :func:`repro.rl.rollout.collect_vec_episodes`.

Environments auto-reset when an episode ends: the returned observation
for a finished slot is the first observation of its next episode, and the
final metrics report is delivered through ``infos[i]["metrics"]``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — avoids a circular import at runtime
    from repro.core.scheduler_env import SchedulerEnv

__all__ = ["VecEnv"]


class VecEnv:
    """Batched lockstep wrapper over homogeneous scheduler environments."""

    def __init__(self, envs: Sequence["SchedulerEnv"]) -> None:
        if not envs:
            raise ValueError("VecEnv needs at least one environment")
        dims = {(e.encoder.obs_dim, e.actions.n) for e in envs}
        if len(dims) != 1:
            raise ValueError("all environments must share observation/action spaces")
        self.envs: List["SchedulerEnv"] = list(envs)
        self.encoder = envs[0].encoder
        self.actions = envs[0].actions

    @classmethod
    def from_env(cls, env: "SchedulerEnv", num_envs: int,
                 base_seed: int = 0) -> "VecEnv":
        """``num_envs`` sibling environments of ``env`` with spread seeds.

        The episode factory is shared (sampling-mode factories are
        stateless; replay-mode factories deal traces round-robin across
        the batch), each sibling getting an independent RNG stream.
        Siblings are built with :meth:`SchedulerEnv.clone`, so they carry
        the prototype's *complete* configuration — including any
        environment option added after this method was written.
        """
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        return cls([env.clone(seed=base_seed + i) for i in range(num_envs)])

    # --- batched API ---------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.envs)

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        """Reset every environment; returns stacked observations ``(B, D)``."""
        for i, env in enumerate(self.envs):
            env.reset_state(None if seed is None else seed + i)
        return self._encode_all()

    def reset_env(self, index: int) -> np.ndarray:
        """Reset one environment (episode truncation); returns its obs."""
        env = self.envs[index]
        env.reset_state()
        return self.encoder.encode_batch([env.sim], views=[env.views()])[0]

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict[str, Any]]]:
        """Apply one action per environment.

        Returns ``(obs (B, D), rewards (B,), dones (B,), infos)``. Done
        environments are auto-reset; their returned observation is the
        fresh episode's first observation and the terminal metrics stay
        in ``infos[i]["metrics"]``.
        """
        rewards = np.zeros(self.num_envs)
        dones = np.zeros(self.num_envs, dtype=bool)
        infos: List[Dict[str, Any]] = []
        for i, (env, action) in enumerate(zip(self.envs, actions)):
            reward, done, info = env.step_dynamics(int(action))
            rewards[i] = reward
            dones[i] = done
            infos.append(info)
            if done:
                env.reset_state()
        return self._encode_all(), rewards, dones, infos

    def action_masks(self) -> np.ndarray:
        """Stacked validity masks ``(B, n)`` for the current states."""
        return self.actions.mask_batch([e.sim for e in self.envs],
                                       views=[e.views() for e in self.envs])

    # --- internals ------------------------------------------------------------
    def _encode_all(self) -> np.ndarray:
        return self.encoder.encode_batch([e.sim for e in self.envs],
                                         views=[e.views() for e in self.envs])
