"""DRLScheduler: a trained policy packaged as a scheduling policy.

Baselines implement ``schedule(sim)``; this adapter gives the learned
policy the same interface, so :meth:`repro.sim.Simulation.run_policy`
evaluates DRL and heuristics under *identical* dynamics — the apples-to-
apples requirement of the comparison tables.

:meth:`DRLScheduler.save` and :meth:`DRLScheduler.load` define the one
policy file: ``train --out`` writes it, every
:class:`~repro.harness.leaderboard.PolicyStore` entry is one, and every
command that takes a trained policy reads it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.core.actions import SchedulingActionSpace
from repro.core.config import CoreConfig
from repro.core.reward import RewardWeights
from repro.core.state import StateEncoder
from repro.core.views import slot_views
from repro.rl.policies import CategoricalPolicy
from repro.util.errors import InputError
from repro.util.io import atomic_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["DRLScheduler"]


class DRLScheduler:
    """Greedy (or stochastic) decoding of a trained policy, tick by tick."""

    def __init__(
        self,
        policy: CategoricalPolicy,
        config: CoreConfig,
        platform_names: list,
        greedy: bool = True,
        rng: Optional[np.random.Generator] = None,
        work_scale: float = 25.0,
    ) -> None:
        self.policy = policy
        self.config = config
        self.encoder = StateEncoder(config, platform_names, work_scale=work_scale)
        self.actions = SchedulingActionSpace(config, platform_names)
        self.greedy = greedy
        # Greedy decoding (the default) never draws from this generator;
        # the fixed fallback only pins stochastic decoding when the
        # caller didn't thread a seed, keeping evaluations repeatable.
        # repro: allow[DET001]
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.name = "drl"
        # Kernel contract (repro.sim.kernel): with nothing pending and
        # nothing running the mask admits only no-op, and greedy decoding
        # draws no randomness — so greedy DRL is idle-quiescent.
        # Stochastic decoding consumes RNG every call and never is.
        self.quiescence = "idle" if greedy else "none"

    def cache_spec(self) -> dict:
        """Canonical parameterization for result-cache fingerprinting.

        The full decision function — network weights, MDP config,
        platform order, decoding mode — but not the live RNG position,
        which mutates during evaluation and would otherwise give
        logically identical evaluations different cache keys.
        """
        return {
            "class": type(self).__qualname__,
            "config": self.config,
            "platforms": self.encoder.platform_names,
            "work_scale": self.encoder.work_scale,
            "greedy": self.greedy,
            "params": self.policy.net.params(),
        }

    def schedule(self, sim: "Simulation") -> None:
        """Decode actions for the current tick until no-op or budget.

        Each decision computes its state's slot views once, for the mask,
        the observation and the applied action.
        """
        cfg = self.config
        for _ in range(cfg.actions_per_tick):
            views = slot_views(sim, cfg.queue_slots, cfg.running_slots)
            mask = self.actions.mask(sim, views)
            obs = self.encoder.encode(sim, views)
            action, _ = self.policy.act(obs, self.rng, mask=mask, greedy=self.greedy)
            if action == self.actions.noop_index:
                return
            self.actions.apply(sim, action, views)

    def save(self, path: os.PathLike) -> None:
        """Write the policy file: the weights plus what rebuilds this scheduler.

        One ``.npz`` holds the network's arrays verbatim (``p0``, ``p1``,
        ... in layer order; float64, so a reload is bit-identical) and a
        ``meta`` JSON record of the layer ``sizes``, ``activation`` (always
        ``"tanh"``), ``work_scale``, ``platform_names``, ``greedy`` and the
        :class:`CoreConfig` (``core``). The bytes depend only on these,
        so equal schedulers write equal files. The file lands at exactly
        ``path`` (no ``.npz`` is appended) and replaces it atomically.
        """
        params = self.policy.net.params()
        sizes = [params[0].shape[0]] + [w.shape[1] for w in params[0::2]]
        meta = {
            "sizes": sizes,
            "activation": "tanh",
            "work_scale": self.encoder.work_scale,
            "platform_names": list(self.encoder.platform_names),
            "greedy": self.greedy,
            "core": dataclasses.asdict(self.config),
        }
        with atomic_writer(path, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)),
                     **{f"p{i}": p for i, p in enumerate(params)})

    @classmethod
    def load(cls, path: os.PathLike) -> "DRLScheduler":
        """Rebuild the scheduler :meth:`save` wrote, as it was trained.

        It carries its training-time MDP config, platform names and work
        scale, so it runs on any scenario whose cluster has the same
        platform names, whatever that scenario's own config. Raises
        :class:`~repro.util.errors.InputError` naming ``path`` when it
        cannot be read or is not a policy file: not an ``.npz``, bare
        ``p0…pN`` weights without the metadata (the format of older
        builds), metadata that does not decode (an ``activation`` other
        than ``"tanh"`` included), or weights that disagree with their
        recorded sizes.
        """
        try:
            data = np.load(path, allow_pickle=False)
        except OSError as exc:
            raise InputError(f"{path}: cannot read policy: "
                             f"{exc.strerror or exc}") from None
        except (ValueError, EOFError, zipfile.BadZipFile):
            raise InputError(f"{path} is not a policy file") from None
        if isinstance(data, np.ndarray):
            raise InputError(f"{path} is not a policy file")
        with data:
            if "meta" not in data:
                raise InputError(
                    f"{path} holds bare p0..pN weights without the policy "
                    "metadata, an older format; retrain to write a policy "
                    "file")
            try:
                meta = json.loads(data["meta"].item())
                sizes = meta["sizes"]
                core = dict(meta["core"])
                core["parallelism_levels"] = tuple(core["parallelism_levels"])
                core["reward"] = RewardWeights(**core["reward"])
                if meta["activation"] != "tanh":
                    raise ValueError(
                        f"unknown activation {meta['activation']!r}")
                # The freshly constructed weights are overwritten below by
                # the stored arrays; this RNG only shapes throwaway values.
                policy = CategoricalPolicy.for_sizes(
                    sizes[0], sizes[-1], tuple(sizes[1:-1]),
                    np.random.default_rng(0))  # repro: allow[DET001]
                scheduler = cls(policy, CoreConfig(**core),
                                meta["platform_names"], greedy=meta["greedy"],
                                work_scale=meta["work_scale"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                raise InputError(f"{path}: policy metadata does not decode "
                                 f"({exc!r})") from None
            for i, param in enumerate(policy.net.params()):
                loaded = data.get(f"p{i}")
                if loaded is None or loaded.shape != param.shape:
                    found = "missing" if loaded is None else loaded.shape
                    raise InputError(
                        f"{path}: weight p{i} is {found}; its layer sizes "
                        f"{sizes} need shape {param.shape}")
                param[...] = loaded
        return scheduler
