"""Weight initialization.

:func:`xavier_uniform` takes an explicit :class:`numpy.random.Generator`
so that experiments are fully seed-deterministic (a hard requirement
for the reproduction harness: every experiment table is regenerated
from fixed seeds).
"""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform"]


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot & Bengio (2010) uniform init, suited to tanh nets."""
    if len(shape) != 2:
        raise ValueError(f"xavier_uniform expects a 2-D weight shape, got {shape}")
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
