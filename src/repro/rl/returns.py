"""Return and advantage estimation (fully vectorized).

The reverse-scan recurrences (discounted returns, GAE) are implemented
with a single backwards loop over the *time* axis only — O(T) with NumPy
scalars, no per-element Python overhead beyond the unavoidable scan.
"""

from __future__ import annotations

import numpy as np

__all__ = ["discounted_returns", "gae_advantages", "normalize_advantages"]


def discounted_returns(rewards: np.ndarray, gamma: float, bootstrap: float = 0.0) -> np.ndarray:
    """Discounted returns ``G_t = r_t + gamma * G_{t+1}``.

    ``bootstrap`` seeds ``G_T`` (value of the state after the last step;
    0 for terminal episodes).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    g = float(bootstrap)
    for t in range(rewards.shape[0] - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g
    return out


def gae_advantages(
    rewards: np.ndarray,
    values: np.ndarray,
    gamma: float,
    lam: float,
    last_value: float = 0.0,
) -> np.ndarray:
    """Generalized Advantage Estimation (Schulman et al., 2016).

    ``A_t = delta_t + (gamma*lam) A_{t+1}`` with
    ``delta_t = r_t + gamma V_{t+1} - V_t``.
    """
    if not 0.0 <= gamma <= 1.0 or not 0.0 <= lam <= 1.0:
        raise ValueError("gamma and lam must be in [0, 1]")
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    T = rewards.shape[0]
    if values.shape[0] != T:
        raise ValueError("values must align with rewards")
    next_values = np.concatenate([values[1:], [last_value]])
    deltas = rewards + gamma * next_values - values
    adv = np.empty(T)
    acc = 0.0
    gl = gamma * lam
    for t in range(T - 1, -1, -1):
        acc = deltas[t] + gl * acc
        adv[t] = acc
    return adv


def normalize_advantages(adv: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Zero-mean unit-variance advantages (the standard PG variance fix)."""
    adv = np.asarray(adv, dtype=np.float64)
    std = adv.std()
    if std < eps:
        return adv - adv.mean()
    return (adv - adv.mean()) / (std + eps)
