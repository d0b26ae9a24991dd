"""Adam, operating in place on aliased parameter arrays.

:class:`Adam` is constructed with the ``params`` and ``grads`` lists a
:class:`~repro.nn.layers.Layer` returns — those are the layer's own
arrays, so ``step()`` mutates the model directly, with no copying per
update. It is the one optimizer every trainer (PPO, A2C, REINFORCE and
the behaviour-cloning warm start) uses.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: List[np.ndarray],
        grads: List[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if len(params) != len(grads):
            raise ValueError("params and grads must align")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"param/grad shape mismatch {p.shape} vs {g.shape}")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        # Two scratch arrays per parameter, which the update writes every
        # intermediate into instead of allocating temporaries. They are
        # views into two buffers sized to the largest parameter: the
        # parameters are updated one at a time, so they can share them.
        size = max((p.size for p in params), default=0)
        dtype = np.result_type(*params) if params else np.float64
        bufs = (np.zeros(size, dtype), np.zeros(size, dtype))
        self._scratch = [tuple(buf[:p.size].reshape(p.shape) for buf in bufs)
                         for p in params]
        self.t = 0

    def step(self) -> None:
        """One update, in place: ``m = β1·m + (1-β1)·g``, ``v = β2·v +
        ((1-β2)·g)·g`` and ``p -= lr·(m/bc1) / (sqrt(v/bc2) + eps)``,
        each operation in this order."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v, (a, b) in zip(self.params, self.grads, self.m, self.v,
                                      self._scratch):
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a

    def zero_grad(self) -> None:
        for g in self.grads:
            g.fill(0.0)
