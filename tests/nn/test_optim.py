"""Adam: convergence on a quadratic, in-place updates, validation."""

import numpy as np
import pytest

from repro.nn import Adam


def quadratic_setup(start=5.0):
    """One scalar parameter with loss (p - 3)^2."""
    p = np.array([start])
    g = np.zeros_like(p)
    return p, g


def run_steps(opt, p, g, steps=200):
    for _ in range(steps):
        g[...] = 2.0 * (p - 3.0)
        opt.step()
    return p


@pytest.mark.parametrize(
    "factory",
    [lambda p, g: Adam([p], [g], lr=0.2)],
    ids=["adam"],
)
def test_converges_on_quadratic(factory):
    p, g = quadratic_setup()
    opt = factory(p, g)
    run_steps(opt, p, g)
    assert p[0] == pytest.approx(3.0, abs=1e-2)


def test_updates_are_in_place(rng):
    p = rng.normal(size=(3, 2))
    original = p
    before = p.copy()
    g = np.ones_like(p)
    opt = Adam([p], [g], lr=0.1)
    opt.step()
    assert opt.params[0] is original            # aliasing preserved
    assert not np.array_equal(original, before)  # the model's own array moved


def test_adam_bias_correction_first_step():
    # After one step with constant gradient, Adam moves ~lr in -sign(g).
    p = np.array([0.0])
    g = np.array([10.0])
    Adam([p], [g], lr=0.1).step()
    assert p[0] == pytest.approx(-0.1, rel=1e-3)


def test_zero_grad():
    p = np.array([1.0])
    g = np.array([5.0])
    opt = Adam([p], [g], lr=0.1)
    opt.zero_grad()
    assert g[0] == 0.0


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError):
        Adam([np.zeros(3)], [np.zeros(4)], lr=0.1)


def test_mismatched_lengths_raise():
    with pytest.raises(ValueError):
        Adam([np.zeros(3)], [], lr=0.1)


def test_invalid_hyperparams_raise():
    p, g = quadratic_setup()
    with pytest.raises(ValueError):
        Adam([p], [g], lr=0.0)
    with pytest.raises(ValueError):
        Adam([p], [g], lr=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        Adam([p], [g], lr=0.1, beta2=-0.1)
