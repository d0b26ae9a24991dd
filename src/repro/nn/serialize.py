"""Flat-vector views of a model's parameters.

:func:`get_flat_params` and :func:`set_flat_params` copy every parameter
of a model into one 1-D vector and back: gradient checking perturbs
them, and training keeps the best policy seen as one such snapshot. A
policy is saved to disk as a policy file
(:meth:`repro.core.agent.DRLScheduler.save`), never as bare weights.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.layers import Layer

__all__ = ["get_flat_params", "set_flat_params"]


def get_flat_params(model: Layer) -> np.ndarray:
    """Concatenate all parameters into a single 1-D vector (copy)."""
    parts: List[np.ndarray] = [p.ravel() for p in model.params()]
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def set_flat_params(model: Layer, flat: np.ndarray) -> None:
    """Write a flat vector produced by :func:`get_flat_params` back in place."""
    flat = np.asarray(flat).ravel()
    offset = 0
    for p in model.params():
        n = p.size
        if offset + n > flat.size:
            raise ValueError("flat vector too short for model")
        p[...] = flat[offset : offset + n].reshape(p.shape)
        offset += n
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, model needs {offset}")
