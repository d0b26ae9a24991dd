"""From-scratch neural-network substrate in vectorized NumPy.

The paper's policy/value networks are small MLPs; no GPU framework is
available offline, so this package implements the identical math —
forward pass, manual backpropagation, and first-order optimizers — on
top of NumPy, following the HPC-Python guidance of vectorizing hot
loops and operating in place on preallocated buffers where possible.

Public API
----------
Layers:   :class:`Dense`, :class:`ReLU`, :class:`Tanh`, :class:`Sigmoid`,
          :class:`LeakyReLU`, :class:`Softmax`, :class:`LayerNorm`,
          :class:`Dropout`, :class:`Sequential`
Models:   :func:`mlp` convenience constructor
Losses:   :class:`MSELoss`, :class:`CrossEntropyLoss`, :class:`HuberLoss`
Optim:    :class:`SGD`, :class:`Momentum`, :class:`RMSProp`, :class:`Adam`
Utility:  :func:`softmax`, :func:`log_softmax`, :func:`one_hot`,
          :func:`clip_gradients_`, :func:`global_grad_norm`
Checking: :func:`numerical_gradient`, :func:`gradient_check`
Flat:     :func:`get_flat_params`, :func:`set_flat_params`
"""

from repro.nn.init import (
    he_normal,
    he_uniform,
    orthogonal,
    xavier_normal,
    xavier_uniform,
    zeros_init,
)
from repro.nn.layers import (
    Dense,
    Dropout,
    LayerNorm,
    LeakyReLU,
    Layer,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    mlp,
)
from repro.nn.losses import CrossEntropyLoss, HuberLoss, MSELoss
from repro.nn.optim import SGD, Adam, Momentum, Optimizer, RMSProp
from repro.nn.serialize import get_flat_params, set_flat_params
from repro.nn.utils import (
    clip_gradients_,
    entropy_of_probs,
    global_grad_norm,
    log_softmax,
    one_hot,
    softmax,
)
from repro.nn.gradcheck import gradient_check, numerical_gradient

__all__ = [
    "Dense", "Dropout", "LayerNorm", "LeakyReLU", "Layer", "ReLU",
    "Sequential", "Sigmoid", "Softmax", "Tanh", "mlp",
    "MSELoss", "CrossEntropyLoss", "HuberLoss",
    "SGD", "Momentum", "RMSProp", "Adam", "Optimizer",
    "softmax", "log_softmax", "one_hot", "clip_gradients_",
    "global_grad_norm", "entropy_of_probs",
    "he_normal", "he_uniform", "xavier_normal", "xavier_uniform",
    "orthogonal", "zeros_init",
    "numerical_gradient", "gradient_check",
    "get_flat_params", "set_flat_params",
]
