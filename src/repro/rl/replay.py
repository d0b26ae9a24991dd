"""Experience replay buffer for off-policy (DQN) learning.

Ring-buffer over preallocated arrays: no per-transition allocation, O(1)
insertion, vectorized minibatch sampling — the hot path of DQN training.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Fixed-capacity uniform replay over preallocated NumPy storage."""

    def __init__(self, capacity: int, obs_dim: int, n_actions: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if obs_dim <= 0 or n_actions <= 0:
            raise ValueError("obs_dim and n_actions must be positive")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.next_obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.intp)
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.next_masks = np.ones((capacity, n_actions), dtype=bool)
        self._size = 0
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def add(
        self,
        obs: np.ndarray,
        action: int,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
        next_mask: np.ndarray,
    ) -> None:
        i = self._head
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.dones[i] = done
        self.next_masks[i] = next_mask
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Uniform minibatch (with replacement only if buffer < batch)."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        replace = self._size < batch_size
        idx = rng.choice(self._size, size=batch_size, replace=replace)
        return self._gather(idx)

    def _gather(self, idx: np.ndarray) -> Dict[str, np.ndarray]:
        """The stored transitions at ``idx``, one array per field."""
        return {
            "obs": self.obs[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_obs": self.next_obs[idx],
            "dones": self.dones[idx],
            "next_masks": self.next_masks[idx],
        }
