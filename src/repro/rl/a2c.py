"""Advantage actor-critic (synchronous A2C) with GAE."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.rl.returns import normalize_advantages
from repro.rl.rollout import OnPolicyAgent, RolloutBuffer

__all__ = ["A2CConfig", "A2CAgent"]


@dataclass(frozen=True)
class A2CConfig:
    """Hyperparameters for :class:`A2CAgent`."""

    gamma: float = 0.99
    gae_lambda: float = 0.95
    lr: float = 3e-4
    value_lr: float = 1e-3
    entropy_coef: float = 0.01
    normalize: bool = True
    max_grad_norm: float = 5.0
    hidden: Tuple[int, ...] = (64, 64)


class A2CAgent(OnPolicyAgent):
    """Actor-critic with GAE advantages; one gradient step per batch."""

    records_values = True

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """One actor and one critic gradient step over the batch."""
        batch = buffer.batch()
        advantages, targets = self._gae(buffer)
        if self.config.normalize:
            advantages = normalize_advantages(advantages)
        pg_loss, entropy, grad_norm = self._policy_step(batch, advantages)
        value_loss = self._value_step(batch["obs"], targets)
        return {
            "pg_loss": pg_loss,
            "value_loss": value_loss,
            "entropy": entropy,
            "grad_norm": grad_norm,
        }
