"""Return and advantage estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import discounted_returns, gae_advantages, normalize_advantages


class TestDiscountedReturns:
    def test_gamma_zero_is_rewards(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.allclose(discounted_returns(r, 0.0), r)

    def test_gamma_one_is_suffix_sums(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.allclose(discounted_returns(r, 1.0), [6.0, 5.0, 3.0])

    def test_classic_example(self):
        r = np.array([0.0, 0.0, 1.0])
        out = discounted_returns(r, 0.5)
        assert np.allclose(out, [0.25, 0.5, 1.0])

    def test_bootstrap(self):
        out = discounted_returns(np.array([1.0]), 0.9, bootstrap=10.0)
        assert out[0] == pytest.approx(1.0 + 9.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            discounted_returns(np.ones(3), 1.5)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=20),
           st.floats(0.0, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_property_recurrence(self, rewards, gamma):
        r = np.array(rewards)
        g = discounted_returns(r, gamma)
        for t in range(len(r) - 1):
            assert g[t] == pytest.approx(r[t] + gamma * g[t + 1], rel=1e-9, abs=1e-9)


class TestGAE:
    def test_lambda_one_equals_mc_minus_value(self):
        rewards = np.array([1.0, 1.0, 1.0])
        values = np.array([0.5, 0.5, 0.5])
        adv = gae_advantages(rewards, values, gamma=0.9, lam=1.0)
        returns = discounted_returns(rewards, 0.9)
        assert np.allclose(adv, returns - values)

    def test_lambda_zero_is_td_error(self):
        rewards = np.array([1.0, 2.0])
        values = np.array([3.0, 4.0])
        adv = gae_advantages(rewards, values, gamma=0.9, lam=0.0)
        assert adv[0] == pytest.approx(1.0 + 0.9 * 4.0 - 3.0)
        assert adv[1] == pytest.approx(2.0 + 0.0 - 4.0)

    def test_last_value_bootstraps(self):
        adv = gae_advantages(np.array([0.0]), np.array([0.0]),
                             gamma=1.0, lam=1.0, last_value=5.0)
        assert adv[0] == pytest.approx(5.0)

    def test_perfect_value_function_zero_advantage(self):
        # V == true return => deltas all zero.
        rewards = np.array([1.0, 1.0, 1.0])
        values = discounted_returns(rewards, 0.9)
        adv = gae_advantages(rewards, values, gamma=0.9, lam=0.95)
        assert np.allclose(adv, 0.0, atol=1e-12)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            gae_advantages(np.ones(3), np.ones(2), 0.9, 0.9)


class TestNormalizeAdvantages:
    def test_zero_mean_unit_std(self, rng):
        adv = rng.normal(5.0, 3.0, size=100)
        out = normalize_advantages(adv)
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-6)

    def test_constant_input_no_blowup(self):
        out = normalize_advantages(np.full(5, 7.0))
        assert np.allclose(out, 0.0)
