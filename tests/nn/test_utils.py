"""Numerical utilities: softmax family, entropy, gradient clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    clip_gradients_,
    entropy_of_probs,
    global_grad_norm,
    log_softmax,
    softmax,
)

finite_rows = arrays(
    np.float64,
    (3, 5),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = softmax(rng.normal(size=(6, 4)) * 10)
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_no_overflow_on_huge_logits(self):
        p = softmax(np.array([[1e30, 0.0]]))
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_property_simplex(self, x):
        p = softmax(x)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(4, 3)) * 5
        assert np.allclose(log_softmax(x), np.log(softmax(x)), atol=1e-10)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_log_softmax_nonpositive(self, x):
        assert np.all(log_softmax(x) <= 1e-12)


class TestGradClipping:
    def test_norm_computation(self):
        grads = [np.array([3.0]), np.array([4.0])]
        assert global_grad_norm(grads) == pytest.approx(5.0)

    def test_no_clip_below_threshold(self):
        g = [np.array([1.0, 0.0])]
        norm = clip_gradients_(g, 10.0)
        assert norm == pytest.approx(1.0)
        assert np.allclose(g[0], [1.0, 0.0])

    def test_clips_in_place_to_max_norm(self):
        g = [np.array([30.0]), np.array([40.0])]
        handle = g[0]
        clip_gradients_(g, 5.0)
        assert global_grad_norm(g) == pytest.approx(5.0)
        assert g[0] is handle

    def test_returns_preclip_norm(self):
        g = [np.array([30.0, 40.0])]
        assert clip_gradients_(g, 5.0) == pytest.approx(50.0)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradients_([np.ones(2)], 0.0)

    @given(
        arrays(np.float64, (4,),
               elements=st.floats(-100, 100, allow_nan=False)),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_never_exceeds(self, arr, max_norm):
        g = [arr.copy()]
        clip_gradients_(g, max_norm)
        assert global_grad_norm(g) <= max_norm + 1e-9


class TestEntropy:
    def test_uniform_is_log_n(self):
        p = np.full((1, 4), 0.25)
        assert entropy_of_probs(p)[0] == pytest.approx(np.log(4))

    def test_deterministic_is_zero(self):
        p = np.array([[1.0, 0.0, 0.0]])
        assert entropy_of_probs(p)[0] == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self, rng):
        logits = rng.normal(size=(10, 6))
        p = softmax(logits)
        assert np.all(entropy_of_probs(p) >= 0)
