"""Parameter (de)serialization and flat-vector views.

Checkpoints are ``.npz`` files keyed ``p0, p1, ...`` in layer order; the
flat-vector helpers support gradient checking and cheap policy snapshots
(e.g. saving the best policy during a training sweep).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.layers import Layer
from repro.util.io import atomic_writer

__all__ = ["save_params", "load_params", "get_flat_params", "set_flat_params"]


def save_params(model: Layer, path: str) -> None:
    """Save a model's parameters to an ``.npz`` checkpoint at ``path``.

    The file lands at exactly ``path`` (``np.savez`` given a name would
    append ``.npz``) and replaces it atomically, so an interrupted save
    leaves the previous file, never a torn one.
    """
    arrays = {f"p{i}": p for i, p in enumerate(model.params())}
    with atomic_writer(path, "wb") as handle:
        np.savez(handle, **arrays)


def load_params(model: Layer, path: str) -> None:
    """Load parameters saved by :func:`save_params` into ``model`` in place.

    Raises ``ValueError`` when the checkpoint does not match the model
    architecture (count or shapes), so silent weight corruption is
    impossible.
    """
    with np.load(path) as data:
        keys = sorted(data.files, key=lambda k: int(k[1:]))
        params = model.params()
        if len(keys) != len(params):
            raise ValueError(
                f"checkpoint has {len(keys)} arrays, model has {len(params)}"
            )
        for key, param in zip(keys, params):
            loaded = data[key]
            if loaded.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {loaded.shape} vs {param.shape}"
                )
            param[...] = loaded


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
