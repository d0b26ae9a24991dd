"""Loss values and gradients, against closed forms and finite differences."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss
from repro.nn.gradcheck import numerical_gradient


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
