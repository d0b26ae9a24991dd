"""The linear schedule: endpoints, clamping, refusals."""

import pytest
from hypothesis import given, strategies as st

from repro.rl import LinearSchedule


class TestLinear:
    def test_endpoints(self):
        s = LinearSchedule(1.0, 0.1, 100)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)

    def test_midpoint(self):
        assert LinearSchedule(1.0, 0.0, 10)(5) == pytest.approx(0.5)

    def test_clamps_past_end(self):
        assert LinearSchedule(1.0, 0.1, 100)(10_000) == pytest.approx(0.1)

    def test_increasing_direction_supported(self):
        s = LinearSchedule(0.4, 1.0, 10)
        assert s(10) == pytest.approx(1.0)
        assert s(5) == pytest.approx(0.7)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, 0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LinearSchedule(1.0, 0.0, 10)(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounded_between_endpoints(self, step):
        s = LinearSchedule(1.0, 0.05, 500)
        assert 0.05 <= s(step) <= 1.0
