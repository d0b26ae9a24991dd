"""Loss functions returning ``(scalar_loss, grad_wrt_input)``.

Gradients are already divided by the batch size, so callers feed them
straight into ``model.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.utils import log_softmax, softmax

__all__ = ["CrossEntropyLoss", "HuberLoss"]


class HuberLoss:
    """Huber (smooth-L1) loss with threshold ``delta``; DQN's standard loss."""

    def __init__(self, delta: float = 1.0) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = delta

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        pred = np.atleast_2d(pred)
        target = np.atleast_2d(target)
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
        diff = pred - target
        abs_diff = np.abs(diff)
        quad = abs_diff <= self.delta
        loss_elems = np.where(
            quad, 0.5 * diff * diff, self.delta * (abs_diff - 0.5 * self.delta)
        )
        loss = float(np.mean(loss_elems))
        grad_elems = np.where(quad, diff, self.delta * np.sign(diff))
        return loss, grad_elems / diff.size


class CrossEntropyLoss:
    """Cross entropy over integer class labels, applied to raw logits.

    Combining log-softmax with the NLL keeps the backward pass the simple,
    stable ``(softmax - onehot) / batch`` form.
    """

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        logits = np.atleast_2d(logits)
        labels = np.asarray(labels, dtype=np.intp).ravel()
        n, c = logits.shape
        if labels.shape[0] != n:
            raise ValueError("labels length must match batch size")
        if labels.size and (labels.min() < 0 or labels.max() >= c):
            raise ValueError("label out of range")
        logp = log_softmax(logits, axis=-1)
        loss = float(-np.mean(logp[np.arange(n), labels]))
        grad = softmax(logits, axis=-1)
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n
