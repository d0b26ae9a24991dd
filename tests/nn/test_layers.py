"""Layer forward/backward correctness, certified against finite differences."""

import numpy as np
import pytest

from repro.nn import Dense, Sequential, Tanh, gradient_check, mlp, xavier_uniform


def _check_layer(layer, x, tol=1e-5):
    """Gradient-check the layer wrapped in a Sequential."""
    model = Sequential([layer])
    return gradient_check(model, lambda y: float(np.sum(y * y)), x, tol=tol)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_xavier_weights_zero_biases(self):
        """Each Dense's weights are one Xavier-uniform draw from ``rng``;
        its zero biases draw nothing."""
        rng = np.random.default_rng(7)
        layers = [Dense(4, 3, rng), Dense(3, 2, rng)]
        ref = np.random.default_rng(7)
        for layer, shape in zip(layers, [(4, 3), (3, 2)]):
            assert np.array_equal(layer.W, xavier_uniform(shape, ref))
            assert np.array_equal(layer.b, np.zeros(shape[1]))

    def test_forward_matches_matmul(self, rng):
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))
        assert np.allclose(layer.forward(x), x @ layer.W + layer.b)

    def test_1d_input_promoted(self, rng):
        layer = Dense(4, 3, rng)
        assert layer.forward(rng.normal(size=4)).shape == (1, 3)

    def test_wrong_input_dim_raises(self, rng):
        layer = Dense(4, 3, rng)
        with pytest.raises(ValueError, match="expected input dim"):
            layer.forward(rng.normal(size=(2, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(4, 3, rng).backward(np.ones((2, 3)))

    def test_gradient_check(self, rng):
        _check_layer(Dense(4, 3, rng), rng.normal(size=(6, 4)))

    def test_gradients_accumulate(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(g)
        first = layer.dW.copy()
        layer.forward(x)
        layer.backward(g)
        assert np.allclose(layer.dW, 2 * first)

    def test_zero_grad(self, rng):
        layer = Dense(3, 2, rng)
        layer.forward(rng.normal(size=(4, 3)))
        layer.backward(np.ones((4, 2)))
        layer.zero_grad()
        assert np.all(layer.dW == 0) and np.all(layer.db == 0)

    def test_invalid_dims_raise(self, rng):
        with pytest.raises(ValueError):
            Dense(0, 3, rng)
        with pytest.raises(ValueError):
            Dense(3, -1, rng)

    def test_backward_input_grad(self, rng):
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        layer.forward(x)
        g = rng.normal(size=(4, 2))
        dx = layer.backward(g)
        assert np.allclose(dx, g @ layer.W.T)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [Tanh])
    def test_gradient_check(self, layer_cls, rng):
        _check_layer(layer_cls(), rng.normal(size=(5, 4)))

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(10, 3)) * 100)
        assert np.all(np.abs(out) <= 1.0)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Tanh().backward(np.ones((1, 2)))


class TestSequentialAndMLP:
    def test_mlp_shapes(self, rng):
        net = mlp([5, 8, 3], rng)
        assert net.forward(rng.normal(size=(2, 5))).shape == (2, 3)

    def test_mlp_gradient_check(self, rng):
        net = mlp([3, 6, 2], rng)
        gradient_check(net, lambda y: float(np.sum(np.tanh(y))), rng.normal(size=(4, 3)))

    def test_mlp_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            mlp([4], rng)

    def test_sequential_param_collection(self, rng):
        net = mlp([4, 8, 2], rng)
        assert len(net.params()) == 4   # two Dense layers x (W, b)
        assert all(p.shape == g.shape for p, g in zip(net.params(), net.grads()))
