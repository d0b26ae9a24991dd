"""Proximal Policy Optimization (clipped surrogate, Schulman et al. 2017).

The strongest learner in the suite (experiment E12) and the default
algorithm of the core scheduler's training loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.utils import clip_gradients_
from repro.rl.returns import normalize_advantages
from repro.rl.rollout import OnPolicyAgent, RolloutBuffer

__all__ = ["PPOConfig", "PPOAgent"]


@dataclass(frozen=True)
class PPOConfig:
    """Hyperparameters for :class:`PPOAgent`."""

    gamma: float = 0.99
    gae_lambda: float = 0.95
    lr: float = 3e-4
    value_lr: float = 1e-3
    clip_eps: float = 0.2
    epochs: int = 4
    minibatch_size: int = 64
    entropy_coef: float = 0.01
    normalize: bool = True
    max_grad_norm: float = 5.0
    target_kl: Optional[float] = 0.03
    hidden: Tuple[int, ...] = (64, 64)

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.minibatch_size < 1:
            raise ValueError("epochs and minibatch_size must be >= 1")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")


class PPOAgent(OnPolicyAgent):
    """Clipped-surrogate PPO with GAE and early stopping on KL."""

    records_values = True

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Multiple clipped-surrogate epochs over the rollout batch."""
        cfg = self.config
        batch = buffer.batch()
        obs, actions, masks = batch["obs"], batch["actions"], batch["masks"]
        old_logp = batch["log_probs"]
        advantages, targets = self._gae(buffer)
        if cfg.normalize:
            advantages = normalize_advantages(advantages)

        n = obs.shape[0]
        stats = {"pg_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                 "clip_fraction": 0.0, "approx_kl": 0.0}
        updates = 0
        stop = False
        for _ in range(cfg.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start : start + cfg.minibatch_size]
                mb_masks = masks[idx] if masks is not None else None

                self.policy.zero_grad()
                loss, entropy, clip_frac = self.policy.ppo_step(
                    obs[idx], actions[idx], advantages[idx], old_logp[idx],
                    cfg.clip_eps, masks=mb_masks, entropy_coef=cfg.entropy_coef,
                )
                clip_gradients_(self.policy.grads(), cfg.max_grad_norm)
                self.optimizer.step()
                vloss = self._value_step(obs[idx], targets[idx])

                new_logp, _ = self.policy.log_probs_and_entropy(
                    obs[idx], actions[idx], masks=mb_masks
                )
                approx_kl = float(np.mean(old_logp[idx] - new_logp))
                stats["pg_loss"] += loss
                stats["value_loss"] += vloss
                stats["entropy"] += entropy
                stats["clip_fraction"] += clip_frac
                stats["approx_kl"] += approx_kl
                updates += 1
                if cfg.target_kl is not None and approx_kl > cfg.target_kl:
                    stop = True
                    break
            if stop:
                break

        for key in stats:
            stats[key] /= max(updates, 1)
        stats["updates"] = float(updates)
        return stats
