"""Numerically-stable primitives shared by layers, losses, and RL code."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "clip_gradients_",
    "global_grad_norm",
    "entropy_of_probs",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``.

    Subtracts the rowwise max before exponentiating so that large logits
    (common after reward spikes early in policy-gradient training) cannot
    overflow.
    """
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable ``log(softmax(x))`` along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def global_grad_norm(grads: Iterable[np.ndarray]) -> float:
    """L2 norm of the concatenation of all gradient arrays."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def clip_gradients_(grads: List[np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. In-place scaling avoids reallocating the
    gradient buffers every update (guide: "in place operations").
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def entropy_of_probs(probs: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Shannon entropy of probability rows (nats)."""
    p = np.clip(probs, eps, 1.0)
    return -np.sum(p * np.log(p), axis=axis)
