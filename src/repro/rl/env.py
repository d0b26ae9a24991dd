"""Environment protocol.

A trimmed Gym-style API plus one addition the scheduling domain needs:
``action_mask()`` — the set of currently-valid actions. All agents in
:mod:`repro.rl` respect masks, which is essential for the composite
scheduling action space where most actions are invalid most of the time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = ["Env"]


class Env:
    """Abstract episodic environment with masked discrete actions."""

    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        """Start a new episode; returns the initial observation."""
        raise NotImplementedError

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Apply ``action``; returns ``(obs, reward, done, info)``."""
        raise NotImplementedError

    def action_mask(self) -> np.ndarray:
        """Boolean validity mask over the discrete actions."""
        raise NotImplementedError

    def clone(self, seed: Optional[int] = None) -> "Env":
        """A sibling environment with this one's full configuration.

        The contract :class:`~repro.rl.vec_env.VecEnv` (``from_env``) and
        the serving checkpointer rely on: every constructor option is
        carried over, only the RNG seed may differ, and no episode state
        leaks between siblings. Concrete environments must implement it
        by rebuilding from captured constructor arguments (see
        ``SchedulerEnv.clone``) rather than hand-listing options, which
        silently drops any option added later.
        """
        raise NotImplementedError
