"""Layer forward/backward correctness, certified against finite differences."""

import numpy as np
import pytest

from repro.nn import Dense, ReLU, Sequential, Tanh, gradient_check, mlp


def _check_layer(layer, x, tol=1e-5):
    """Gradient-check the layer wrapped in a Sequential."""
    model = Sequential([layer])
    return gradient_check(model, lambda y: float(np.sum(y * y)), x, tol=tol)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

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
    @pytest.mark.parametrize("layer_cls", [ReLU, Tanh])
    def test_gradient_check(self, layer_cls, rng):
        _check_layer(layer_cls(), rng.normal(size=(5, 4)))

    def test_relu_clamps_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.allclose(out, [[0.0, 0.0, 2.0]])

    def test_tanh_range(self, rng):
        out = Tanh().forward(rng.normal(size=(10, 3)) * 100)
        assert np.all(np.abs(out) <= 1.0)

    def test_backward_before_forward_raises(self):
        for layer in (ReLU(), Tanh()):
            with pytest.raises(RuntimeError):
                layer.backward(np.ones((1, 2)))


class TestSequentialAndMLP:
    def test_mlp_shapes(self, rng):
        net = mlp([5, 8, 3], rng)
        assert net.forward(rng.normal(size=(2, 5))).shape == (2, 3)

    def test_mlp_gradient_check(self, rng):
        net = mlp([3, 6, 2], rng, activation="tanh")
        gradient_check(net, lambda y: float(np.sum(np.tanh(y))), rng.normal(size=(4, 3)))

    def test_mlp_relu_gradient_check(self, rng):
        # ReLU kinks can break finite differences at 0; offset inputs.
        net = mlp([3, 6, 2], rng, activation="relu")
        x = rng.normal(size=(4, 3)) + 5.0
        gradient_check(net, lambda y: float(np.sum(y * y)), x, tol=1e-4)

    def test_mlp_out_activation_relu(self, rng):
        """The dueling Q-network's trunk: a ReLU after the last Dense too."""
        net = mlp([4, 8, 3], rng, activation="relu", out_activation="relu")
        assert [type(layer) for layer in net.layers] == [Dense, ReLU, Dense, ReLU]
        assert np.all(net.forward(rng.normal(size=(5, 4))) >= 0.0)

    def test_mlp_rejects_bad_args(self, rng):
        with pytest.raises(ValueError):
            mlp([4], rng)
        with pytest.raises(ValueError):
            mlp([4, 2], rng, activation="nope")
        with pytest.raises(ValueError):
            mlp([4, 2], rng, out_activation="nope")
        # Only the tanh and ReLU nets the trainers build exist.
        for name in ("sigmoid", "leaky_relu", "softmax"):
            with pytest.raises(ValueError, match="unknown activation"):
                mlp([4, 2], rng, activation=name)

    def test_sequential_param_collection(self, rng):
        net = mlp([4, 8, 2], rng)
        assert len(net.params()) == 4   # two Dense layers x (W, b)
        assert all(p.shape == g.shape for p, g in zip(net.params(), net.grads()))
