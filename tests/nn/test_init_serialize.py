"""Initializers, policy-file round trips, flat parameter views."""

import numpy as np
import pytest

from repro.core import (
    CoreConfig,
    DRLScheduler,
    SchedulingActionSpace,
    StateEncoder,
)
from repro.nn import (
    get_flat_params,
    mlp,
    set_flat_params,
    xavier_uniform,
)
from repro.rl import CategoricalPolicy


class TestInitializers:
    @pytest.mark.parametrize("init", [xavier_uniform])
    def test_shape_and_determinism(self, init):
        a = init((6, 4), np.random.default_rng(7))
        b = init((6, 4), np.random.default_rng(7))
        assert a.shape == (6, 4)
        assert np.array_equal(a, b)

    def test_xavier_uniform_bounds(self):
        w = xavier_uniform((100, 100), np.random.default_rng(0))
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= limit)

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            xavier_uniform((3,), np.random.default_rng(0))


def small_scheduler(rng, hidden=(8,)) -> DRLScheduler:
    """A tiny two-platform scheduler around a fresh ``hidden`` policy."""
    core = CoreConfig(queue_slots=2, running_slots=1, horizon=3)
    platforms = ["cpu", "gpu"]
    policy = CategoricalPolicy.for_sizes(
        StateEncoder(core, platforms).obs_dim,
        SchedulingActionSpace(core, platforms).n, hidden, rng)
    return DRLScheduler(policy, core, platforms)


def rewrite(path, edit) -> None:
    """Apply ``edit`` to a saved file's arrays and write them back."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestSerialization:
    @pytest.mark.parametrize("name", ["ckpt.npz", "ckpt"])
    def test_roundtrip(self, rng, tmp_path, name):
        """A path without the ``.npz`` suffix is written as given."""
        saved = small_scheduler(rng)
        path = str(tmp_path / name)
        saved.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        fresh = small_scheduler(np.random.default_rng(99))
        x = rng.normal(size=(3, saved.encoder.obs_dim))
        assert not np.allclose(saved.policy.net.forward(x),
                               fresh.policy.net.forward(x))
        loaded = DRLScheduler.load(path)
        np.testing.assert_array_equal(saved.policy.net.forward(x),
                                      loaded.policy.net.forward(x))

    def test_architecture_mismatch_raises(self, rng, tmp_path):
        """Weights that disagree with the recorded layer sizes are refused:
        an array too few, or one of the wrong shape."""
        path = str(tmp_path / "ckpt.npz")
        small_scheduler(rng, hidden=(8, 8)).save(path)
        rewrite(path, lambda arrays: arrays.pop("p5"))
        with pytest.raises(ValueError, match="p5 is missing"):
            DRLScheduler.load(path)
        small_scheduler(rng, hidden=(8, 8)).save(path)
        rewrite(path, lambda arrays: arrays.update(p2=arrays["p2"][:, :7]))
        with pytest.raises(ValueError, match="shape"):
            DRLScheduler.load(path)

    def test_flat_params_roundtrip(self, rng):
        net = mlp([3, 5, 2], rng)
        flat = get_flat_params(net)
        assert flat.shape == (3 * 5 + 5 + 5 * 2 + 2,)
        net2 = mlp([3, 5, 2], np.random.default_rng(1))
        set_flat_params(net2, flat)
        x = rng.normal(size=(2, 3))
        assert np.allclose(net.forward(x), net2.forward(x))

    def test_flat_params_wrong_size_raises(self, rng):
        net = mlp([3, 5, 2], rng)
        with pytest.raises(ValueError):
            set_flat_params(net, np.zeros(3))
        with pytest.raises(ValueError):
            set_flat_params(net, np.zeros(10_000))

    def test_flat_params_is_copy(self, rng):
        net = mlp([3, 4, 2], rng)
        flat = get_flat_params(net)
        flat += 100.0
        assert not np.allclose(get_flat_params(net), flat)
