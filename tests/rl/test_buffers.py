"""The rollout buffer."""

import numpy as np
import pytest

from repro.rl import RolloutBuffer, Transition


def _t(obs_val, action=0, reward=1.0, done=False, mask=None):
    return Transition(
        obs=np.full(3, float(obs_val)),
        action=action,
        reward=reward,
        done=done,
        log_prob=-0.5,
        value=0.1,
        mask=mask,
    )


class TestRolloutBuffer:
    def test_episode_splitting(self):
        buf = RolloutBuffer()
        buf.add(_t(0))
        buf.add(_t(1, done=True))
        buf.add(_t(2))
        buf.add(_t(3, done=True))
        eps = buf.episodes()
        assert len(eps) == 2
        assert [len(e) for e in eps] == [2, 2]
        assert buf.num_episodes == 2

    def test_trailing_partial_episode_included(self):
        buf = RolloutBuffer()
        buf.add(_t(0, done=True))
        buf.add(_t(1))
        buf.add(_t(2))
        eps = buf.episodes()
        assert len(eps) == 2
        assert len(eps[1]) == 2

    def test_end_episode_forces_boundary(self):
        buf = RolloutBuffer()
        buf.add(_t(0))
        buf.end_episode()
        buf.add(_t(1))
        assert [len(e) for e in buf.episodes()] == [1, 1]

    def test_end_episode_idempotent(self):
        buf = RolloutBuffer()
        buf.add(_t(0, done=True))
        buf.end_episode()
        buf.end_episode()
        assert buf.num_episodes == 1

    def test_batch_arrays(self):
        buf = RolloutBuffer()
        mask = np.array([True, False])
        buf.add(_t(0, action=1, reward=2.0, mask=mask))
        buf.add(_t(1, action=0, reward=3.0, done=True, mask=mask))
        batch = buf.batch()
        assert batch["obs"].shape == (2, 3)
        assert np.array_equal(batch["actions"], [1, 0])
        assert np.allclose(batch["rewards"], [2.0, 3.0])
        assert batch["masks"].shape == (2, 2)
        assert batch["dones"][1]

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            RolloutBuffer().batch()

    def test_clear(self):
        buf = RolloutBuffer()
        buf.add(_t(0, done=True))
        buf.clear()
        assert len(buf) == 0 and buf.num_episodes == 0
