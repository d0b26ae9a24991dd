"""Proportional prioritized experience replay (Schaul et al., 2016).

Transitions are sampled with probability proportional to
``(|td_error| + eps) ** alpha`` and the induced bias is corrected by
importance-sampling weights annealed by ``beta``. Sampling uses a
vectorized cumulative-sum search over the priority array — O(n) per
batch, which at the buffer sizes used here (<= 10^5) is faster in NumPy
than a Python-object sum-tree and has no per-transition allocation.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.rl.replay import ReplayBuffer
from repro.rl.schedules import LinearSchedule

__all__ = ["PrioritizedReplayBuffer"]


class PrioritizedReplayBuffer(ReplayBuffer):
    """Fixed-capacity proportional-PER over preallocated NumPy storage.

    Same transition layout as :class:`~repro.rl.replay.ReplayBuffer`
    (masked next-state support for the scheduler MDP), plus per-slot
    priorities. New transitions enter at the current maximum priority so
    everything is replayed at least once.
    """

    def __init__(
        self,
        capacity: int,
        obs_dim: int,
        n_actions: int,
        alpha: float = 0.6,
        beta: Optional[LinearSchedule] = None,
        eps: float = 1e-3,
    ) -> None:
        super().__init__(capacity, obs_dim, n_actions)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.alpha = alpha
        self.eps = eps
        self.beta = beta if beta is not None else LinearSchedule(0.4, 1.0, 100_000)
        self.priorities = np.zeros(capacity)
        self._max_priority = 1.0
        self._samples_drawn = 0

    def add(
        self,
        obs: np.ndarray,
        action: int,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
        next_mask: np.ndarray,
    ) -> None:
        self.priorities[self._head] = self._max_priority
        super().add(obs, action, reward, next_obs, done, next_mask)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Priority-proportional minibatch with IS weights.

        The returned dict adds ``weights`` (max-normalized, in (0, 1])
        and ``indices`` (for :meth:`update_priorities`) to the usual
        transition arrays.
        """
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        probs = self.priorities[: self._size] ** self.alpha
        total = probs.sum()
        if total <= 0:  # pragma: no cover - priorities are always > 0
            probs = np.full(self._size, 1.0 / self._size)
        else:
            probs = probs / total
        # With-replacement draws are standard for proportional PER.
        idx = rng.choice(self._size, size=batch_size, p=probs, replace=True)
        beta = self.beta(self._samples_drawn)
        self._samples_drawn += batch_size
        weights = (self._size * probs[idx]) ** (-beta)
        batch = self._gather(idx)
        batch["weights"] = weights / weights.max()
        batch["indices"] = idx
        return batch

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Refresh priorities after a gradient step (``|delta| + eps``)."""
        if len(indices) != len(td_errors):
            raise ValueError("indices and td_errors must align")
        new = np.abs(np.asarray(td_errors, dtype=float)) + self.eps
        self.priorities[np.asarray(indices, dtype=np.intp)] = new
        # Recompute the insert ceiling from the *live* array rather than
        # ratcheting it up monotonically: a single early TD-error spike
        # must not dominate every future insert once the spiked slot has
        # been re-scored (or overwritten) at a lower priority.
        self._max_priority = float(self.priorities[: self._size].max())
