"""Spaces and return estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import (
    Box,
    Discrete,
    discounted_returns,
    gae_advantages,
    n_step_returns,
    normalize_advantages,
)


class TestDiscrete:
    def test_contains(self):
        space = Discrete(4)
        assert space.contains(0) and space.contains(3)
        assert not space.contains(4) and not space.contains(-1)
        assert not space.contains(1.5)

    def test_sample_in_range(self, rng):
        space = Discrete(5)
        for _ in range(50):
            assert 0 <= space.sample(rng) < 5

    def test_masked_sample_respects_mask(self, rng):
        space = Discrete(4)
        mask = np.array([False, True, False, True])
        for _ in range(50):
            assert space.sample(rng, mask) in (1, 3)

    def test_all_false_mask_raises(self, rng):
        with pytest.raises(ValueError):
            Discrete(3).sample(rng, np.zeros(3, dtype=bool))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            Discrete(0)


class TestBox:
    def test_contains_and_sample(self, rng):
        space = Box(-1.0, 1.0, (3,))
        assert space.contains(np.zeros(3))
        assert not space.contains(np.full(3, 2.0))
        assert not space.contains(np.zeros(4))
        assert space.contains(space.sample(rng))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box(1.0, 1.0, (2,))


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


class TestNStepReturns:
    def test_one_step_is_td_target(self):
        rewards = np.array([1.0, 2.0])
        values = np.array([10.0, 20.0])
        out = n_step_returns(rewards, values, gamma=0.9, n=1, last_value=30.0)
        assert out[0] == pytest.approx(1.0 + 0.9 * 20.0)
        assert out[1] == pytest.approx(2.0 + 0.9 * 30.0)

    def test_large_n_spans_episode(self):
        rewards = np.array([1.0, 1.0, 1.0])
        values = np.zeros(3)
        out = n_step_returns(rewards, values, gamma=1.0, n=10)
        assert out[0] == pytest.approx(3.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            n_step_returns(np.ones(2), np.ones(2), 0.9, 0)

    def test_terminal_episode_bootstraps_zero(self):
        """Windows reaching the episode end of a *terminal* episode
        (``last_value=0``) must not bootstrap anything."""
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([5.0, 6.0, 7.0])
        out = n_step_returns(rewards, values, gamma=0.5, n=2, last_value=0.0)
        # t=0: in-episode cut -> bootstraps values[2].
        assert out[0] == pytest.approx(1.0 + 0.5 * 2.0 + 0.25 * 7.0)
        # t=1 and t=2 reach the boundary -> pure reward sums.
        assert out[1] == pytest.approx(2.0 + 0.5 * 3.0)
        assert out[2] == pytest.approx(3.0)

    def test_truncated_episode_bootstraps_last_value_once(self):
        """A truncated episode bootstraps V(s_T) exactly once per window,
        discounted by the window length that reaches the boundary."""
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.array([5.0, 6.0, 7.0])
        v_T = 11.0
        out = n_step_returns(rewards, values, gamma=0.5, n=2, last_value=v_T)
        # t=0 cuts in-episode: uses values[2], NOT last_value.
        assert out[0] == pytest.approx(1.0 + 0.5 * 2.0 + 0.25 * 7.0)
        # t=1: window [r1, r2] then the boundary -> gamma^2 * v_T.
        assert out[1] == pytest.approx(2.0 + 0.5 * 3.0 + 0.25 * v_T)
        # t=2: one reward then the boundary -> gamma * v_T.
        assert out[2] == pytest.approx(3.0 + 0.5 * v_T)

    def test_truncated_matches_discounted_returns_when_n_spans(self):
        """With n >= T the n-step targets collapse to full discounted
        returns seeded by the same bootstrap."""
        rewards = np.array([1.0, -2.0, 0.5, 3.0])
        values = np.zeros(4)
        for last_value in (0.0, 4.2):
            expected = discounted_returns(rewards, 0.9, bootstrap=last_value)
            got = n_step_returns(rewards, values, gamma=0.9, n=10,
                                 last_value=last_value)
            assert np.allclose(got, expected)


class TestNormalizeAdvantages:
    def test_zero_mean_unit_std(self, rng):
        adv = rng.normal(5.0, 3.0, size=100)
        out = normalize_advantages(adv)
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.std() == pytest.approx(1.0, abs=1e-6)

    def test_constant_input_no_blowup(self):
        out = normalize_advantages(np.full(5, 7.0))
        assert np.allclose(out, 0.0)
