"""Loss values and gradients, against closed forms and finite differences."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, HuberLoss
from repro.nn.gradcheck import numerical_gradient


class TestHuberLoss:
    def test_quadratic_inside_delta(self):
        loss, _ = HuberLoss(1.0)(np.array([[0.5]]), np.array([[0.0]]))
        assert loss == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        loss, _ = HuberLoss(1.0)(np.array([[3.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(3.0 - 0.5)

    def test_gradient_matches_finite_diff(self, rng):
        target = rng.normal(size=(4, 3))
        pred = target + rng.normal(size=(4, 3)) * 2
        huber = HuberLoss(1.0)
        _, grad = huber(pred, target)
        num = numerical_gradient(lambda p: huber(p, target)[0], pred.copy())
        assert np.allclose(grad, num, atol=1e-5)

    def test_gradient_bounded(self, rng):
        # Huber's defining property: gradient magnitude capped at delta/n.
        pred = rng.normal(size=(2, 2)) * 1000
        target = np.zeros((2, 2))
        _, grad = HuberLoss(1.0)(pred, target)
        assert np.all(np.abs(grad) <= 1.0 / 4 + 1e-12)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(0.0)


class TestCrossEntropyLoss:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = CrossEntropyLoss()(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_logits_log_c(self):
        c = 5
        loss, _ = CrossEntropyLoss()(np.zeros((3, c)), np.array([0, 1, 2]))
        assert loss == pytest.approx(np.log(c))

    def test_gradient_matches_finite_diff(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        ce = CrossEntropyLoss()
        _, grad = ce(logits, labels)
        num = numerical_gradient(lambda z: ce(z, labels)[0], logits.copy())
        assert np.allclose(grad, num, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(4, 3))
        _, grad = CrossEntropyLoss()(logits, np.array([0, 1, 2, 0]))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 3]))

    def test_label_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((2, 3)), np.array([0]))

    def test_stable_with_huge_logits(self):
        loss, grad = CrossEntropyLoss()(np.array([[1e4, -1e4]]), np.array([0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
