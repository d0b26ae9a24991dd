"""End-to-end learning sanity: the stack fits real functions."""

import numpy as np
import pytest

from repro.nn import Adam, CrossEntropyLoss, mlp


def test_mlp_fits_xor(rng):
    """The canonical non-linear task: XOR must be learnable."""
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    y = np.array([0, 1, 1, 0])
    net = mlp([2, 16, 2], rng)
    opt = Adam(net.params(), net.grads(), lr=5e-2)
    loss_fn = CrossEntropyLoss()
    for _ in range(300):
        net.zero_grad()
        loss, grad = loss_fn(net.forward(X), y)
        net.backward(grad)
        opt.step()
    preds = np.argmax(net.forward(X), axis=1)
    assert np.array_equal(preds, y)
    assert loss < 0.05


def test_mlp_fits_regression(rng):
    """Fit y = sin(3x) on [-1, 1] to low MSE (the value head's squared
    error, its gradient ``2 * diff / n`` backpropagated by hand)."""
    X = np.linspace(-1, 1, 128).reshape(-1, 1)
    y = np.sin(3 * X)
    net = mlp([1, 32, 32, 1], rng)
    opt = Adam(net.params(), net.grads(), lr=1e-2)
    loss = None
    for _ in range(500):
        net.zero_grad()
        diff = net.forward(X) - y
        loss = float(np.mean(diff * diff))
        net.backward((2.0 / diff.size) * diff)
        opt.step()
    assert loss < 1e-2


def test_loss_decreases_monotonically_enough(rng):
    """Over coarse windows the training loss must trend down."""
    X = rng.normal(size=(64, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    net = mlp([4, 16, 2], rng)
    opt = Adam(net.params(), net.grads(), lr=1e-2)
    loss_fn = CrossEntropyLoss()
    losses = []
    for _ in range(120):
        net.zero_grad()
        loss, grad = loss_fn(net.forward(X), y)
        net.backward(grad)
        opt.step()
        losses.append(loss)
    first, last = np.mean(losses[:20]), np.mean(losses[-20:])
    assert last < first * 0.5


def test_deterministic_training_given_seed():
    """Identical seeds => identical trained parameters."""
    def train(seed):
        rng = np.random.default_rng(seed)
        X = np.random.default_rng(0).normal(size=(32, 3))
        y = (X[:, 0] > 0).astype(int)
        net = mlp([3, 8, 2], rng)
        opt = Adam(net.params(), net.grads(), lr=1e-2)
        loss_fn = CrossEntropyLoss()
        for _ in range(50):
            net.zero_grad()
            _, grad = loss_fn(net.forward(X), y)
            net.backward(grad)
            opt.step()
        return [p.copy() for p in net.params()]

    a, b = train(7), train(7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
