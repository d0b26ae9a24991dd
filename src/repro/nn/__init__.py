"""From-scratch neural-network substrate in vectorized NumPy.

The paper's policy and value networks are small MLPs; no GPU framework
is available offline, so this package implements their math — forward
pass, manual backpropagation and the Adam update — on top of NumPy,
operating in place on preallocated buffers where possible. It holds
what training, evaluation and the E12 comparison call, and nothing
more: a new layer, loss or optimizer lands together with its first
caller.

Public API
----------
Layers:   :class:`Dense`, :class:`ReLU`, :class:`Tanh`, :class:`Sequential`
Models:   :func:`mlp` (tanh policy/value nets, ReLU Q-nets)
Init:     :func:`xavier_uniform`, :func:`he_normal`, :func:`zeros_init`
Losses:   :class:`CrossEntropyLoss` (warm start), :class:`HuberLoss` (DQN)
Optim:    :class:`Adam`
Utility:  :func:`softmax`, :func:`log_softmax`, :func:`entropy_of_probs`,
          :func:`clip_gradients_`, :func:`global_grad_norm`
Checking: :func:`numerical_gradient`, :func:`gradient_check` (the test
          suite's backward-pass reference)
Flat:     :func:`get_flat_params`, :func:`set_flat_params`
"""

from repro.nn.init import he_normal, xavier_uniform, zeros_init
from repro.nn.layers import Dense, Layer, ReLU, Sequential, Tanh, mlp
from repro.nn.losses import CrossEntropyLoss, HuberLoss
from repro.nn.optim import Adam
from repro.nn.serialize import get_flat_params, set_flat_params
from repro.nn.utils import (
    clip_gradients_,
    entropy_of_probs,
    global_grad_norm,
    log_softmax,
    softmax,
)
from repro.nn.gradcheck import gradient_check, numerical_gradient

__all__ = [
    "Dense", "Layer", "ReLU", "Sequential", "Tanh", "mlp",
    "CrossEntropyLoss", "HuberLoss",
    "Adam",
    "softmax", "log_softmax", "clip_gradients_",
    "global_grad_norm", "entropy_of_probs",
    "he_normal", "xavier_uniform", "zeros_init",
    "numerical_gradient", "gradient_check",
    "get_flat_params", "set_flat_params",
]
