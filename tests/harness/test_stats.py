"""Bootstrap CIs and paired permutation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import MeanCI, bootstrap_ci, paired_permutation_test, summarize


class TestBootstrapCI:
    def test_mean_inside_interval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 1.0, size=30)
        ci = bootstrap_ci(x, rng=np.random.default_rng(1))
        assert ci.lo <= ci.mean <= ci.hi
        assert ci.mean == pytest.approx(float(np.mean(x)))

    def test_single_value_degenerates(self):
        ci = bootstrap_ci([3.0])
        assert ci.lo == ci.mean == ci.hi == 3.0

    def test_interval_narrows_with_more_data(self):
        rng = np.random.default_rng(2)
        small = bootstrap_ci(rng.normal(size=5), rng=np.random.default_rng(3))
        large = bootstrap_ci(rng.normal(size=500), rng=np.random.default_rng(3))
        assert (large.hi - large.lo) < (small.hi - small.lo)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], level=1.5)

    def test_deterministic_given_rng(self):
        x = [1.0, 2.0, 3.0, 4.0]
        a = bootstrap_ci(x, rng=np.random.default_rng(7))
        b = bootstrap_ci(x, rng=np.random.default_rng(7))
        assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_overlaps(self):
        a = MeanCI(1.0, 0.5, 1.5, 0.95)
        b = MeanCI(1.4, 1.2, 1.8, 0.95)
        c = MeanCI(3.0, 2.5, 3.5, 0.95)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_summarize_wrapper(self):
        mean, lo, hi = summarize([1.0, 2.0, 3.0], rng=np.random.default_rng(0))
        assert lo <= mean <= hi

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=20))
    def test_interval_always_ordered(self, values):
        ci = bootstrap_ci(values, n_boot=200, rng=np.random.default_rng(0))
        assert ci.lo <= ci.hi


class TestPairedPermutation:
    def test_clear_difference_small_p(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=20)
        b = a + 1.0
        p = paired_permutation_test(a, b, rng=np.random.default_rng(1))
        assert p < 0.01

    def test_identical_samples_p_one(self):
        x = [0.1, 0.2, 0.3]
        assert paired_permutation_test(x, x) == 1.0

    @pytest.mark.parametrize("n_perm", [1, 7, 100])
    def test_single_pair_known_answer(self, n_perm):
        """Either sign flip of one pair ties the observed |mean|, so all
        ``n_perm`` draws count and the add-one p-value is exactly
        ``(n_perm + 1) / (n_perm + 1)``, whatever the stream."""
        assert paired_permutation_test([2.0], [1.0], n_perm=n_perm) == 1.0

    def test_pure_noise_large_p(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=30)
        b = a + rng.normal(0, 1.0, size=30)   # zero-mean paired noise
        p = paired_permutation_test(a, b, rng=np.random.default_rng(3))
        assert p > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_permutation_test([], [])

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            p = paired_permutation_test(a, b, n_perm=500,
                                        rng=np.random.default_rng(5))
            assert 0.0 < p <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=12)
        b = rng.normal(size=12) + 0.3
        p1 = paired_permutation_test(a, b, rng=np.random.default_rng(7))
        p2 = paired_permutation_test(b, a, rng=np.random.default_rng(7))
        assert p1 == pytest.approx(p2)
