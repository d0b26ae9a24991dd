"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
experiments are fully seed-deterministic (a hard requirement for the
reproduction harness: every experiment table is regenerated from fixed
seeds).
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "he_normal", "zeros_init"]


def _fans(shape: tuple) -> tuple:
    """Return (fan_in, fan_out) for a 2-D weight shape."""
    if len(shape) != 2:
        raise ValueError(f"initializers expect 2-D weight shapes, got {shape}")
    return shape[0], shape[1]


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot & Bengio (2010) uniform init, suited to tanh nets."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He et al. (2015) normal init, suited to ReLU nets."""
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros_init(shape: tuple, rng: np.random.Generator) -> np.ndarray:  # noqa: ARG001
    """All-zeros init (the Dense bias default)."""
    return np.zeros(shape)
