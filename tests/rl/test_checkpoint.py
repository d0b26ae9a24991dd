"""Policy-file round trips (:meth:`repro.core.agent.DRLScheduler.save`
and :meth:`~repro.core.agent.DRLScheduler.load`).

Pinned properties:

* the policy of every agent that yields a scheduler (reinforce with and
  without its value baseline, a2c, ppo), wrapped in a
  :class:`DRLScheduler`, round-trips exactly: the weights are
  bit-identical, the reloaded scheduler carries the saved config,
  platform names, work scale and decoding mode, and its greedy
  decisions are the saved one's;
* a path without the ``.npz`` suffix is written and read as given;
* a file whose weights disagree with its recorded layer sizes is
  refused, never reinterpreted, and so is a file that is not a policy
  file at all, or one whose recorded activation is not ``"tanh"``, the
  one ``mlp`` builds.
"""

import json

import numpy as np
import pytest

from repro.core import (
    CoreConfig,
    DRLScheduler,
    SchedulingActionSpace,
    StateEncoder,
)
from repro.rl import (
    A2CAgent,
    A2CConfig,
    PPOAgent,
    PPOConfig,
    ReinforceAgent,
    ReinforceConfig,
)
from repro.util.errors import InputError

CORE = CoreConfig(queue_slots=3, running_slots=2, horizon=4)
PLATFORMS = ["cpu", "gpu"]
OBS_DIM = StateEncoder(CORE, PLATFORMS).obs_dim
N_ACTIONS = SchedulingActionSpace(CORE, PLATFORMS).n

AGENTS = {
    "reinforce": (ReinforceAgent, ReinforceConfig(hidden=(8,))),
    "reinforce-no-value": (ReinforceAgent,
                           ReinforceConfig(hidden=(8,), baseline="none")),
    "a2c": (A2CAgent, A2CConfig(hidden=(8,))),
    "ppo": (PPOAgent, PPOConfig(hidden=(8,))),
}


def make_scheduler(name: str, seed: int) -> DRLScheduler:
    """The freshly initialised policy of agent ``name`` as a scheduler."""
    cls, config = AGENTS[name]
    agent = cls(OBS_DIM, N_ACTIONS, config, np.random.default_rng(seed))
    return DRLScheduler(agent.policy, CORE, PLATFORMS, work_scale=12.5)


@pytest.mark.parametrize("name", sorted(AGENTS))
class TestRoundTrip:
    def test_weights_exact(self, name, tmp_path):
        saved = make_scheduler(name, seed=1)
        path = tmp_path / "policy.npz"
        saved.save(path)
        loaded = DRLScheduler.load(path)
        a, b = saved.policy.net.params(), loaded.policy.net.params()
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
        assert loaded.config == CORE
        assert loaded.encoder.platform_names == PLATFORMS
        assert loaded.encoder.work_scale == 12.5
        assert loaded.greedy

    def test_greedy_decisions_identical(self, name, tmp_path):
        saved = make_scheduler(name, seed=3)
        path = tmp_path / "policy.npz"
        saved.save(path)
        loaded = DRLScheduler.load(path)
        rng = np.random.default_rng(0)
        for _ in range(10):
            obs = rng.normal(size=OBS_DIM)
            mask = rng.random(N_ACTIONS) < 0.5
            mask[-1] = True
            a1, _ = saved.policy.act(obs, rng, mask=mask, greedy=True)
            a2, _ = loaded.policy.act(obs, rng, mask=mask, greedy=True)
            assert a1 == a2


class TestSuffixlessPath:
    def test_save_and_load_share_the_exact_path(self, tmp_path):
        # np.savez appends ".npz" to bare string paths; the policy file
        # must not, or save(path) + load(path) desynchronize.
        saved = make_scheduler("ppo", seed=1)
        path = tmp_path / "checkpoint"          # no suffix
        saved.save(str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint"]
        loaded = DRLScheduler.load(str(path))
        np.testing.assert_array_equal(saved.policy.net.params()[0],
                                      loaded.policy.net.params()[0])


class TestMismatches:
    def test_wrong_architecture_shape(self, tmp_path):
        # A p0 one row short of the recorded input size is refused.
        path = tmp_path / "r.npz"
        make_scheduler("reinforce", seed=0).save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["p0"] = arrays["p0"][:-1]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError, match="shape"):
            DRLScheduler.load(path)

    @pytest.mark.parametrize("activation", ["sigmoid", "leaky_relu"])
    def test_activation_mlp_does_not_build(self, activation, tmp_path):
        """A ``meta.activation`` no trainer writes is refused as one
        undecodable-metadata error, not rebuilt as another network."""
        path = tmp_path / "policy.npz"
        make_scheduler("ppo", seed=0).save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(arrays["meta"].item())
        meta["activation"] = activation
        arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(InputError,
                           match="policy metadata does not decode") as info:
            DRLScheduler.load(path)
        assert str(path) in str(info.value)
        assert "unknown activation" in str(info.value)

    def test_relu_is_refused_too(self, tmp_path):
        """``relu`` once rebuilt a ReLU network; no trainer writes it, so
        it is refused like any other activation but ``tanh``."""
        path = tmp_path / "policy.npz"
        make_scheduler("ppo", seed=0).save(path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(arrays["meta"].item())
        assert meta["activation"] == "tanh"
        meta["activation"] = "relu"
        arrays["meta"] = np.array(json.dumps(meta, sort_keys=True))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(InputError, match="unknown activation 'relu'"):
            DRLScheduler.load(path)

    @pytest.mark.parametrize("content", ["text", "empty", "npy", "zip"])
    def test_not_a_policy_file(self, content, tmp_path):
        path = tmp_path / "policy.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes({"text": b"not a policy\n", "empty": b"",
                              "zip": b"PK\x03\x04 torn"}[content])
        with pytest.raises(ValueError, match="not a policy file"):
            DRLScheduler.load(path)
