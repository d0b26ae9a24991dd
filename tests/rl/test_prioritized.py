"""Prioritized replay: sampling bias, IS weights, priority updates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import LinearSchedule, PrioritizedReplayBuffer


OBS_DIM, N_ACTIONS = 4, 3


def fill(buffer, n, rng=None):
    rng = rng or np.random.default_rng(0)
    for i in range(n):
        obs = np.full(OBS_DIM, float(i))
        buffer.add(obs, i % N_ACTIONS, float(i), obs + 1, False,
                   np.ones(N_ACTIONS, dtype=bool))


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0},
        {"obs_dim": 0},
        {"n_actions": 0},
        {"alpha": -0.1},
        {"alpha": 1.5},
        {"eps": 0.0},
    ])
    def test_rejects_bad_args(self, kwargs):
        defaults = {"capacity": 8, "obs_dim": OBS_DIM, "n_actions": N_ACTIONS}
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(**defaults)

    def test_empty_sample_raises(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS)
        with pytest.raises(ValueError, match="empty"):
            buf.sample(4, np.random.default_rng(0))


class TestRingSemantics:
    def test_size_capped_at_capacity(self):
        buf = PrioritizedReplayBuffer(5, OBS_DIM, N_ACTIONS)
        fill(buf, 12)
        assert len(buf) == 5

    def test_overwrite_keeps_latest(self):
        buf = PrioritizedReplayBuffer(3, OBS_DIM, N_ACTIONS)
        fill(buf, 5)
        # slots hold transitions 2, 3, 4 (indices wrapped)
        stored = sorted(buf.obs[:, 0].tolist())
        assert stored == [2.0, 3.0, 4.0]


class TestSampling:
    def test_batch_shapes_and_fields(self):
        buf = PrioritizedReplayBuffer(16, OBS_DIM, N_ACTIONS)
        fill(buf, 10)
        batch = buf.sample(6, np.random.default_rng(1))
        assert batch["obs"].shape == (6, OBS_DIM)
        assert batch["weights"].shape == (6,)
        assert batch["indices"].shape == (6,)
        assert np.all(batch["weights"] > 0) and np.all(batch["weights"] <= 1.0)

    def test_high_priority_sampled_more(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS, alpha=1.0,
                                      beta=LinearSchedule(1.0, 1.0, 1))
        fill(buf, 8)
        # Transition 3 gets a huge priority, the rest tiny.
        buf.update_priorities(np.arange(8), np.where(np.arange(8) == 3, 100.0, 0.0))
        rng = np.random.default_rng(2)
        counts = np.zeros(8)
        for _ in range(50):
            batch = buf.sample(8, rng)
            for i in batch["indices"]:
                counts[i] += 1
        assert counts[3] > 0.8 * counts.sum()

    def test_uniform_when_alpha_zero(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS, alpha=0.0)
        fill(buf, 8)
        buf.update_priorities(np.arange(8), np.linspace(0, 10, 8))
        rng = np.random.default_rng(3)
        counts = np.zeros(8)
        for _ in range(200):
            for i in buf.sample(8, rng)["indices"]:
                counts[i] += 1
        # Roughly uniform: no slot dominates.
        assert counts.max() < 2.0 * counts.min()

    def test_weights_counteract_priority_bias(self):
        """The most-over-sampled transition gets the smallest IS weight."""
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS, alpha=1.0,
                                      beta=LinearSchedule(1.0, 1.0, 1))
        fill(buf, 8)
        buf.update_priorities(np.arange(8), np.arange(8, dtype=float))
        batch = buf.sample(64, np.random.default_rng(4))
        idx, w = batch["indices"], batch["weights"]
        hi = w[idx == 7]
        lo = w[idx == 0]
        if len(hi) and len(lo):
            assert hi.mean() < lo.mean()

    def test_new_transitions_get_max_priority(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS)
        fill(buf, 4)
        buf.update_priorities(np.arange(4), np.array([50.0, 1.0, 1.0, 1.0]))
        fill(buf, 1)   # fifth transition enters at max priority
        assert buf.priorities[4] == pytest.approx(buf._max_priority)
        assert buf.priorities[4] >= 50.0


class TestMaxPriorityDecays:
    def test_ceiling_follows_live_priorities_down(self):
        """An early TD-error spike must stop dominating inserts once the
        spiked slot has been re-scored at a lower priority."""
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS, eps=0.01)
        fill(buf, 4)
        buf.update_priorities(np.array([0]), np.array([100.0]))
        assert buf._max_priority == pytest.approx(100.01)
        # The spike is re-scored down; the ceiling must follow.
        buf.update_priorities(np.arange(4), np.array([0.5, 0.2, 0.3, 0.1]))
        assert buf._max_priority == pytest.approx(0.51)
        fill(buf, 1)
        assert buf.priorities[4] == pytest.approx(0.51)

    def test_ceiling_tracks_overwritten_spike_at_capacity(self):
        """When the ring wraps over the spiked slot, the ceiling reflects
        the live array after the next update, not the dead spike."""
        buf = PrioritizedReplayBuffer(4, OBS_DIM, N_ACTIONS, eps=0.01)
        fill(buf, 4)
        buf.update_priorities(np.array([0]), np.array([100.0]))
        fill(buf, 1)              # wraps: slot 0 overwritten at max priority
        assert buf.priorities[0] == pytest.approx(100.01)
        buf.update_priorities(np.array([0]), np.array([1.0]))
        assert buf._max_priority == pytest.approx(1.01)

    def test_wraparound_inserts_use_current_ceiling(self):
        buf = PrioritizedReplayBuffer(3, OBS_DIM, N_ACTIONS, eps=0.01)
        fill(buf, 3)
        buf.update_priorities(np.arange(3), np.array([2.0, 0.1, 0.1]))
        fill(buf, 2)              # overwrites slots 0 and 1 (obs 0.0, 1.0)
        assert len(buf) == 3
        assert sorted(buf.obs[:, 0].tolist()) == [0.0, 1.0, 2.0]
        assert buf.priorities[0] == pytest.approx(2.01)
        assert buf.priorities[1] == pytest.approx(2.01)


class TestPriorityUpdates:
    def test_update_uses_abs_error_plus_eps(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS, eps=0.01)
        fill(buf, 4)
        buf.update_priorities(np.array([0, 1]), np.array([-2.0, 0.0]))
        assert buf.priorities[0] == pytest.approx(2.01)
        assert buf.priorities[1] == pytest.approx(0.01)

    def test_mismatched_lengths_raise(self):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS)
        fill(buf, 4)
        with pytest.raises(ValueError, match="align"):
            buf.update_priorities(np.array([0, 1]), np.array([1.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-10, max_value=10,
                              allow_nan=False), min_size=1, max_size=8))
    def test_priorities_always_positive(self, errors):
        buf = PrioritizedReplayBuffer(8, OBS_DIM, N_ACTIONS)
        fill(buf, 8)
        idx = np.arange(len(errors))
        buf.update_priorities(idx, np.array(errors))
        assert np.all(buf.priorities[: len(errors)] > 0)
