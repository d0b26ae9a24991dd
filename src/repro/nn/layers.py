"""Layers with explicit forward/backward passes.

Every layer caches what its backward pass needs during ``forward`` and
exposes its parameters and parameter-gradients through ``params()`` /
``grads()`` as *aliased* arrays — optimizers update them in place, so no
parameter copying happens anywhere in the training loop.

Shapes follow the batch-first convention: inputs are ``(batch, features)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.init import xavier_uniform

__all__ = ["Layer", "Dense", "Tanh", "Sequential", "mlp"]


class Layer:
    """Base class: a differentiable map with owned parameters."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dL/d(output), accumulate parameter grads, return dL/d(input)."""
        raise NotImplementedError

    def params(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []

    def zero_grad(self) -> None:
        for g in self.grads():
            g.fill(0.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Affine layer ``y = x @ W + b``: Xavier-uniform weights, zero biases."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.W = np.ascontiguousarray(xavier_uniform((in_features, out_features), rng))
        self.b = np.zeros(out_features)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input dim {self.in_features}, got {x.shape[1]}"
            )
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(grad_out)
        # Accumulate (+=) so gradients over minibatch chunks can be summed.
        self.dW += self._x.T @ grad_out
        self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T

    def params(self) -> List[np.ndarray]:
        return [self.W, self.b]

    def grads(self) -> List[np.ndarray]:
        return [self.dW, self.db]


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._y * self._y)


class Sequential(Layer):
    """Composition of layers, applied in order."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out


def mlp(sizes: Sequence[int], rng: np.random.Generator) -> Sequential:
    """Build a multilayer perceptron (the policy and value networks).

    ``sizes`` is ``[in, hidden..., out]``, at least two entries; a
    :class:`Tanh` follows every :class:`Dense` but the last.
    """
    if len(sizes) < 2:
        raise ValueError("mlp needs at least input and output sizes")
    layers: List[Layer] = []
    for i in range(len(sizes) - 1):
        layers.append(Dense(sizes[i], sizes[i + 1], rng))
        if i < len(sizes) - 2:
            layers.append(Tanh())
    return Sequential(layers)
