"""From-scratch neural-network substrate in vectorized NumPy.

The paper's policy and value networks are small MLPs; no GPU framework
is available offline, so this package implements their math — forward
pass, manual backpropagation and the Adam update — on top of NumPy,
operating in place on preallocated buffers where possible. Every
network is a tanh MLP with Xavier-uniform weights and zero biases. The
package holds what training and evaluation call, and nothing more: a
new layer, loss or optimizer lands together with its first caller.

Public API
----------
Layers:   :class:`Dense`, :class:`Tanh`, :class:`Sequential`
Models:   :func:`mlp` (the policy and value nets)
Init:     :func:`xavier_uniform`
Losses:   :class:`CrossEntropyLoss` (warm start)
Optim:    :class:`Adam`
Utility:  :func:`softmax`, :func:`log_softmax`, :func:`entropy_of_probs`,
          :func:`clip_gradients_`, :func:`global_grad_norm`
Checking: :func:`numerical_gradient`, :func:`gradient_check` (the test
          suite's backward-pass reference)
Flat:     :func:`get_flat_params`, :func:`set_flat_params`
"""

from repro.nn.init import xavier_uniform
from repro.nn.layers import Dense, Layer, Sequential, Tanh, mlp
from repro.nn.losses import CrossEntropyLoss
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
    "Dense", "Layer", "Sequential", "Tanh", "mlp",
    "CrossEntropyLoss",
    "Adam",
    "softmax", "log_softmax", "clip_gradients_",
    "global_grad_norm", "entropy_of_probs",
    "xavier_uniform",
    "numerical_gradient", "gradient_check",
    "get_flat_params", "set_flat_params",
]
