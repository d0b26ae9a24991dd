"""REINFORCE with a baseline — the algorithm DeepRM trained with.

Three baselines are provided:

* ``"value"`` — a learned state-value network (default),
* ``"time"``  — DeepRM's original time-dependent baseline: the mean
  return at each timestep across the episodes of the batch,
* ``"none"``  — raw returns (high variance; kept for the E12 comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.rl.returns import discounted_returns, normalize_advantages
from repro.rl.rollout import OnPolicyAgent, RolloutBuffer

__all__ = ["ReinforceConfig", "ReinforceAgent"]


@dataclass(frozen=True)
class ReinforceConfig:
    """Hyperparameters for :class:`ReinforceAgent`."""

    gamma: float = 0.99
    lr: float = 3e-4
    value_lr: float = 1e-3
    entropy_coef: float = 0.01
    baseline: str = "value"          # "value" | "time" | "none"
    normalize: bool = True
    max_grad_norm: float = 5.0
    hidden: Tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.baseline not in ("value", "time", "none"):
            raise ValueError("baseline must be 'value', 'time', or 'none'")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")


class ReinforceAgent(OnPolicyAgent):
    """Monte-Carlo policy gradient with a configurable baseline."""

    records_values = False

    def __init__(
        self,
        obs_dim: int,
        n_actions: int,
        config: ReinforceConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(obs_dim, n_actions, config, rng)
        if config.baseline == "value":
            self._add_value_fn(obs_dim)

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """One policy-gradient step from a batch of complete episodes."""
        cfg = self.config
        batch = buffer.batch()
        per_step_returns = [
            discounted_returns(np.array([t.reward for t in ep]), cfg.gamma)
            for ep in buffer.episodes()
        ]
        returns = np.concatenate(per_step_returns)

        value_loss = 0.0
        if cfg.baseline == "value":
            baselines = self.value_fn.predict(batch["obs"])
            value_loss = self._value_step(batch["obs"], returns)
            advantages = returns - baselines
        elif cfg.baseline == "time":
            max_len = max(len(r) for r in per_step_returns)
            sums = np.zeros(max_len)
            counts = np.zeros(max_len)
            for rets in per_step_returns:
                sums[: len(rets)] += rets
                counts[: len(rets)] += 1
            time_baseline = sums / np.maximum(counts, 1)
            advantages = np.concatenate(
                [rets - time_baseline[: len(rets)] for rets in per_step_returns]
            )
        else:
            advantages = returns

        if cfg.normalize:
            advantages = normalize_advantages(advantages)
        pg_loss, entropy, grad_norm = self._policy_step(batch, advantages)
        return {
            "pg_loss": pg_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "grad_norm": grad_norm,
            "mean_return": float(np.mean([r[0] for r in per_step_returns])),
        }
