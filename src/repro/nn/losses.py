"""The behaviour-cloning loss, returning ``(scalar_loss, grad_wrt_input)``.

The gradient is already divided by the batch size, so callers feed it
straight into ``model.backward``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.utils import log_softmax, softmax

__all__ = ["CrossEntropyLoss"]


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
