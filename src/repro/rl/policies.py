"""Masked categorical policy and state-value function over the NN stack.

The policy owns the logits network and implements the *analytic* gradient
of the policy-gradient objectives directly at the logits (the softmax /
log-softmax Jacobians are folded in by hand), then backpropagates through
the network. This keeps every agent a few lines of NumPy and makes the
gradients unit-testable against finite differences.

Masking convention: invalid logits are shifted to ``MASK_VALUE`` before
the softmax; their probabilities underflow to ~0 and their gradient
contribution vanishes, so masked actions are never sampled nor trained.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import Sequential, mlp
from repro.nn.utils import entropy_of_probs, log_softmax, softmax

__all__ = ["CategoricalPolicy", "ValueFunction", "MASK_VALUE"]

MASK_VALUE = -1e9


def _apply_mask(logits: np.ndarray, masks: Optional[np.ndarray]) -> np.ndarray:
    if masks is None:
        return logits
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if masks.shape != logits.shape:
        raise ValueError(f"mask shape {masks.shape} != logits shape {logits.shape}")
    if not masks.any(axis=1).all():
        raise ValueError("every row must have at least one valid action")
    return np.where(masks, logits, MASK_VALUE)


class CategoricalPolicy:
    """Stochastic policy ``pi(a|s) = softmax(net(s))`` with action masking."""

    def __init__(self, net: Sequential) -> None:
        self.net = net

    @classmethod
    def for_sizes(
        cls,
        obs_dim: int,
        n_actions: int,
        hidden: Tuple[int, ...],
        rng: np.random.Generator,
    ) -> "CategoricalPolicy":
        """Build an MLP policy ``obs_dim -> hidden... -> n_actions``."""
        return cls(mlp([obs_dim, *hidden, n_actions], rng))

    # --- inference -------------------------------------------------------------
    def probs(self, obs: np.ndarray, masks: Optional[np.ndarray] = None) -> np.ndarray:
        """Action probabilities for a batch (or single) observation."""
        obs = np.atleast_2d(obs)
        logits = _apply_mask(self.net.forward(obs), self._expand_mask(masks, obs.shape[0]))
        return softmax(logits, axis=-1)

    def act(
        self,
        obs: np.ndarray,
        rng: np.random.Generator,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> Tuple[int, float]:
        """Sample (or argmax) one action; returns ``(action, log_prob)``."""
        p = self.probs(obs, None if mask is None else mask[None, :])[0]
        if greedy:
            action = int(np.argmax(p))
        else:
            # Guard against tiny numerical drift in the simplex.
            p = p / p.sum()
            action = int(rng.choice(p.shape[0], p=p))
        return action, float(np.log(max(p[action], 1e-12)))

    def act_batch(
        self,
        obs: np.ndarray,
        rng: np.random.Generator,
        masks: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample (or argmax) one action per row of a batched observation.

        One network forward and one RNG draw serve the whole batch — the
        vectorized-rollout counterpart of :meth:`act`. Returns
        ``(actions, log_probs)`` with shape ``(B,)`` each.
        """
        logits = self.net.forward(obs)
        if masks is not None:
            # (Fresh array: layer caches must not be mutated in place.)
            logits = np.where(masks, logits, MASK_VALUE)
        p = softmax(logits, axis=-1)
        if greedy:
            actions = np.argmax(p, axis=-1)
        else:
            p /= p.sum(axis=-1, keepdims=True)
            # Vectorized categorical sampling by inverse CDF.
            u = rng.random(p.shape[0])
            actions = (p.cumsum(axis=-1) < u[:, None]).sum(axis=-1)
            actions = np.minimum(actions, p.shape[1] - 1)
            if masks is not None:
                # Float-tail edge: if u lands past the last nonzero
                # cumulative bin the count can point at a masked slot;
                # fall back to the row argmax (always valid).
                rows = np.arange(p.shape[0])
                bad = ~np.atleast_2d(masks)[rows, actions]
                if bad.any():
                    actions[bad] = np.argmax(p[bad], axis=-1)
        log_probs = np.log(np.maximum(p[np.arange(p.shape[0]), actions], 1e-12))
        return actions.astype(np.intp), log_probs

    def log_probs_and_entropy(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        masks: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched ``log pi(a|s)`` and policy entropy (no caching)."""
        obs = np.atleast_2d(obs)
        actions = np.asarray(actions, dtype=np.intp)
        logits = _apply_mask(self.net.forward(obs), self._expand_mask(masks, obs.shape[0]))
        logp_all = log_softmax(logits, axis=-1)
        p = np.exp(logp_all)
        logp = logp_all[np.arange(obs.shape[0]), actions]
        return logp, entropy_of_probs(p)

    # --- training --------------------------------------------------------------
    def policy_gradient_step(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        coefficients: np.ndarray,
        masks: Optional[np.ndarray] = None,
        entropy_coef: float = 0.0,
    ) -> Tuple[float, float]:
        """Accumulate grads of ``-mean(coef * log pi(a|s)) - ent_coef * mean(H)``.

        ``coefficients`` is the per-sample scalar multiplying the score
        function: the return for REINFORCE, the advantage for A2C, or
        ``ratio-gated advantage`` pieces for PPO (which uses
        :meth:`ppo_step` instead). The caller zeroes grads and steps the
        optimizer. Returns ``(pg_loss, mean_entropy)``.
        """
        coefficients = np.asarray(coefficients, dtype=np.float64)
        forward = self._forward(obs, actions, masks)
        self._score_backward(forward, coefficients, entropy_coef)
        logp, ent = forward[3:]
        return float(-np.mean(coefficients * logp)), float(np.mean(ent))

    def ppo_step(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        advantages: np.ndarray,
        old_log_probs: np.ndarray,
        clip_eps: float,
        masks: Optional[np.ndarray] = None,
        entropy_coef: float = 0.0,
    ) -> Tuple[float, float, float]:
        """Accumulate grads of the PPO clipped surrogate.

        Returns ``(surrogate_loss, mean_entropy, clip_fraction)``.
        """
        advantages = np.asarray(advantages, dtype=np.float64)
        old_log_probs = np.asarray(old_log_probs, dtype=np.float64)
        forward = self._forward(obs, actions, masks)
        logp, ent = forward[3:]
        ratio = np.exp(logp - old_log_probs)
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantages
        surrogate = np.minimum(unclipped, clipped)
        # Gradient flows only where the unclipped term is the active min.
        active = unclipped <= clipped
        self._score_backward(forward, np.where(active, ratio * advantages, 0.0),
                             entropy_coef)
        return float(-np.mean(surrogate)), float(np.mean(ent)), float(np.mean(~active))

    def _forward(self, obs: np.ndarray, actions: np.ndarray,
                 masks: Optional[np.ndarray]) -> Tuple[np.ndarray, ...]:
        """One masked forward pass over a batch.

        Returns ``(actions, p, log p, log pi(a|s), entropy)``: the actions
        as an index array, the action probabilities and their logs per
        row, the taken actions' log-probabilities and the per-row entropy.
        """
        obs = np.atleast_2d(obs)
        n = obs.shape[0]
        actions = np.asarray(actions, dtype=np.intp)
        logits = _apply_mask(self.net.forward(obs), self._expand_mask(masks, n))
        p = softmax(logits, axis=-1)
        logp_all = log_softmax(logits, axis=-1)
        return actions, p, logp_all, logp_all[np.arange(n), actions], entropy_of_probs(p)

    def _score_backward(self, forward: Tuple[np.ndarray, ...], coef: np.ndarray,
                        entropy_coef: float) -> None:
        """Backpropagate ``-mean(coef * log pi(a|s)) - entropy_coef * mean(H)``
        from the logits of the :meth:`_forward` pass ``forward``."""
        actions, p, logp_all, _, ent = forward
        n = p.shape[0]
        # d/dlogits of -coef * logp(a): coef * (p - onehot)
        dlogits = p * coef[:, None]
        dlogits[np.arange(n), actions] -= coef
        if entropy_coef > 0.0:
            # d/dlogits of -H = p * (log p + H)
            safe_logp = np.where(p > 1e-12, logp_all, 0.0)
            dlogits += entropy_coef * p * (safe_logp + ent[:, None])
        dlogits /= n
        self.net.backward(dlogits)

    # --- plumbing --------------------------------------------------------------
    def params(self) -> List[np.ndarray]:
        return self.net.params()

    def grads(self) -> List[np.ndarray]:
        return self.net.grads()

    def zero_grad(self) -> None:
        self.net.zero_grad()

    @staticmethod
    def _expand_mask(masks: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
        if masks is None:
            return None
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim == 1:
            masks = np.broadcast_to(masks, (n, masks.shape[0]))
        return masks


class ValueFunction:
    """State-value approximator ``V(s)`` trained by squared error."""

    def __init__(self, net: Sequential) -> None:
        self.net = net

    @classmethod
    def for_sizes(
        cls,
        obs_dim: int,
        hidden: Tuple[int, ...],
        rng: np.random.Generator,
    ) -> "ValueFunction":
        return cls(mlp([obs_dim, *hidden, 1], rng))

    def predict(self, obs: np.ndarray) -> np.ndarray:
        """Batched value predictions as a 1-D array."""
        return self.net.forward(np.atleast_2d(obs)).ravel()

    def mse_step(self, obs: np.ndarray, targets: np.ndarray) -> float:
        """Accumulate grads of ``mean((V(s) - target)^2)``; returns the loss."""
        obs = np.atleast_2d(obs)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
        pred = self.net.forward(obs)
        if pred.shape != targets.shape:
            raise ValueError(f"targets shape {targets.shape} != pred {pred.shape}")
        diff = pred - targets
        self.net.backward((2.0 / diff.size) * diff)
        return float(np.mean(diff * diff))

    def params(self) -> List[np.ndarray]:
        return self.net.params()

    def grads(self) -> List[np.ndarray]:
        return self.net.grads()

    def zero_grad(self) -> None:
        self.net.zero_grad()
