"""Composite masked action space of the elasticity-compatible manager.

The flat discrete space enumerates, in order:

1. ``admit(m, p, l)`` — start the ``m``-th visible pending job on platform
   ``p`` with parallelism level ``l`` (a fraction of the job's elasticity
   window): ``M * P * L`` actions;
2. ``grow(k)`` — add one unit to the ``k``-th visible running job;
3. ``shrink(k)`` — remove one unit from it;
4. ``reject(m)`` — shed the ``m``-th visible pending job (only exposed
   with ``reject_actions=True``, and only maskable-valid when the job's
   deadline is provably unreachable);
5. ``noop`` — stop deciding, let simulated time advance.

Grow/shrink are the *elasticity-compatible* part of the action space; the
E5 ablation constructs the space with ``elastic_actions=False``, leaving
admissions only (rigid management of the same malleable workload).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import CoreConfig
from repro.core.views import queue_view as _queue_view
from repro.core.views import running_view as _running_view
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["ActionKind", "Action", "SchedulingActionSpace", "level_to_parallelism"]


class ActionKind(enum.Enum):
    """Categories of scheduling decisions."""

    ADMIT = "admit"
    GROW = "grow"
    SHRINK = "shrink"
    REJECT = "reject"
    NOOP = "noop"


@dataclass(frozen=True)
class Action:
    """Decoded scheduling action."""

    kind: ActionKind
    slot: int = -1            # queue slot (ADMIT) or running slot (GROW/SHRINK)
    platform: Optional[str] = None
    level: int = -1           # parallelism-level index (ADMIT only)


def level_to_parallelism(job: Job, fraction: float) -> int:
    """Map a level fraction to an integer parallelism inside the job window."""
    span = job.max_parallelism - job.min_parallelism
    return int(round(job.min_parallelism + fraction * span))


class SchedulingActionSpace:
    """Encode/decode/mask/apply for the composite scheduling action space."""

    def __init__(self, config: CoreConfig, platform_names: Sequence[str]) -> None:
        if not platform_names:
            raise ValueError("need at least one platform")
        self.config = config
        self.platform_names = list(platform_names)
        self.M = config.queue_slots
        self.P = len(self.platform_names)
        self.L = len(config.parallelism_levels)
        self.K = config.running_slots if config.elastic_actions else 0
        self.R = self.M if config.reject_actions else 0
        self._admit_count = self.M * self.P * self.L
        self.n = self._admit_count + 2 * self.K + self.R + 1

    @property
    def noop_index(self) -> int:
        """Index of the no-op action (always the last one)."""
        return self.n - 1

    # --- encode / decode ----------------------------------------------------
    def decode(self, index: int) -> Action:
        """Flat index -> :class:`Action`."""
        if not 0 <= index < self.n:
            raise ValueError(f"action index {index} out of range [0, {self.n})")
        if index < self._admit_count:
            m, rem = divmod(index, self.P * self.L)
            p, l = divmod(rem, self.L)
            return Action(ActionKind.ADMIT, slot=m,
                          platform=self.platform_names[p], level=l)
        index -= self._admit_count
        if index < self.K:
            return Action(ActionKind.GROW, slot=index)
        index -= self.K
        if index < self.K:
            return Action(ActionKind.SHRINK, slot=index)
        index -= self.K
        if index < self.R:
            return Action(ActionKind.REJECT, slot=index)
        return Action(ActionKind.NOOP)

    def encode(self, action: Action) -> int:
        """:class:`Action` -> flat index."""
        if action.kind is ActionKind.ADMIT:
            p = self.platform_names.index(action.platform)
            if not 0 <= action.slot < self.M or not 0 <= action.level < self.L:
                raise ValueError("admit slot/level out of range")
            return action.slot * self.P * self.L + p * self.L + action.level
        if action.kind is ActionKind.GROW:
            if not 0 <= action.slot < self.K:
                raise ValueError("grow slot out of range")
            return self._admit_count + action.slot
        if action.kind is ActionKind.SHRINK:
            if not 0 <= action.slot < self.K:
                raise ValueError("shrink slot out of range")
            return self._admit_count + self.K + action.slot
        if action.kind is ActionKind.REJECT:
            if not 0 <= action.slot < self.R:
                raise ValueError("reject slot out of range")
            return self._admit_count + 2 * self.K + action.slot
        return self.noop_index

    # --- views ------------------------------------------------------------------
    def queue_view(self, sim: "Simulation") -> List[Job]:
        """Visible queue slots, urgency-ordered (see :mod:`repro.core.views`)."""
        return _queue_view(sim, self.M)

    def running_view(self, sim: "Simulation") -> List[Job]:
        """Visible running slots, urgency-ordered (see :mod:`repro.core.views`)."""
        return _running_view(sim, self.config.running_slots)

    # --- masking ------------------------------------------------------------------
    def mask(self, sim: "Simulation",
             views: Optional[Tuple[List[Job], List[Job]]] = None) -> np.ndarray:
        """Boolean validity mask over the flat action space (noop always valid).

        ``views`` optionally supplies precomputed ``(queue, running)``
        slot views so callers that also encode the state share the sorts.
        """
        mask = np.zeros(self.n, dtype=bool)
        self._mask_into(sim, mask, views)
        return mask

    def mask_batch(
        self,
        sims: Sequence["Simulation"],
        views: Optional[Sequence[Tuple[List[Job], List[Job]]]] = None,
    ) -> np.ndarray:
        """Stacked masks for a batch of simulations, shape ``(B, n)``."""
        masks = np.zeros((len(sims), self.n), dtype=bool)
        for i, sim in enumerate(sims):
            self._mask_into(sim, masks[i], views[i] if views is not None else None)
        return masks

    def _mask_into(self, sim: "Simulation", mask: np.ndarray,
                   views: Optional[Tuple[List[Job], List[Job]]] = None) -> None:
        mask[self.noop_index] = True
        if views is not None:
            queue, running = views
        else:
            queue = self.queue_view(sim)
            running = self.running_view(sim) if self.K else []
        t = sim.tables
        # Free units by cluster platform index, read once per state.
        free_c = [c - u - o for c, u, o in zip(t.p_capacity, t.p_used,
                                               t.p_offline)]
        free = [free_c[t.pindex[p]] for p in self.platform_names]
        levels = sim.memo(self)
        block = self.P * self.L
        for m, job in enumerate(queue):
            admissible = levels.get(job._slot)
            if admissible is None:
                admissible = self._admissible(job, levels)
            base = m * block
            for offset, p, k in admissible:
                if free[p] >= k:
                    mask[base + offset] = True
        if self.K:
            # Inlined can_grow/can_shrink against the free snapshot, from
            # each running slot's placement and window columns.
            grow = self._admit_count
            shrink = grow + self.K
            par_at = t.parallelism.item
            for k_slot, job in enumerate(running):
                s = job._slot
                par = par_at(s)
                if (par + 1 <= t.max_par.item(s)
                        and free_c[t.platform_idx.item(s)] >= 1):
                    mask[grow + k_slot] = True
                if par - 1 >= t.min_par.item(s):
                    mask[shrink + k_slot] = True
        if self.R:
            for m, job in enumerate(queue):
                if self._rejectable(sim, job):
                    mask[self._admit_count + 2 * self.K + m] = True

    def _admissible(self, job: Job, levels: dict) -> tuple:
        """The job's admit choices as ``(offset, platform, parallelism)``:
        every platform it has affinity for, at every level whose
        parallelism falls inside its window; ``offset`` is the action's
        place in the job's queue-slot block.

        Static per job (window and levels never change), so memoized in
        ``levels``, the simulation's memo keyed by slot -- the admit-mask
        loop otherwise recomputes the same roundings per platform per
        state.
        """
        ks = [level_to_parallelism(job, frac)
              for frac in self.config.parallelism_levels]
        admissible = tuple(
            (p * self.L + l, p, k)
            for p, platform in enumerate(self.platform_names)
            if platform in job.affinity
            for l, k in enumerate(ks)
            if job.min_parallelism <= k <= job.max_parallelism)
        if len(levels) > 100_000:
            levels.clear()
        levels[job._slot] = admissible
        return admissible

    @staticmethod
    def _rejectable(sim: "Simulation", job: Job) -> bool:
        """A job may be shed only when its deadline is provably unreachable."""
        best_platform = max(job.affinity, key=job.affinity.get)
        platform = sim.cluster.platforms.get(best_platform)
        base_speed = platform.base_speed if platform is not None else 1.0
        return job.slack(sim.now, base_speed=base_speed) < 0.0

    # --- application -----------------------------------------------------------------
    def apply(self, sim: "Simulation", index: int,
              views: Optional[Tuple[List[Job], List[Job]]] = None) -> bool:
        """Apply a flat action to the simulation.

        Returns True when the action mutated cluster state (i.e. was not
        no-op). Raises ``ValueError`` for actions invalid under the
        current mask — agents must respect the mask. ``views`` optionally
        supplies the ``(queue, running)`` slot views computed for this
        state (they must be current — the vectorized environment passes
        the pair it used to build the action mask).
        """
        action = self.decode(index)
        if action.kind is ActionKind.NOOP:
            return False
        if action.kind is ActionKind.ADMIT:
            queue = views[0] if views is not None else self.queue_view(sim)
            if action.slot >= len(queue):
                raise ValueError(f"admit slot {action.slot} is empty")
            job = queue[action.slot]
            k = level_to_parallelism(job, self.config.parallelism_levels[action.level])
            sim.cluster.allocate(job, action.platform, k, now=sim.now)
            sim.pending.remove(job)
            return True
        if action.kind is ActionKind.REJECT:
            queue = views[0] if views is not None else self.queue_view(sim)
            if action.slot >= len(queue):
                raise ValueError(f"reject slot {action.slot} is empty")
            job = queue[action.slot]
            if not self._rejectable(sim, job):
                raise ValueError(f"job {job.job_id} is still feasible; cannot reject")
            from repro.sim.events import Event, EventKind
            from repro.sim.job import JobState

            job.state = JobState.DROPPED
            job.miss_recorded = True
            sim.pending.remove(job)
            sim.dropped.append(job)
            sim.log.record(Event(sim.now, EventKind.DROP, job.job_id,
                                 detail="policy-reject"))
            return True
        running = views[1] if views is not None else self.running_view(sim)
        if action.slot >= len(running):
            raise ValueError(f"{action.kind.value} slot {action.slot} is empty")
        job = running[action.slot]
        if action.kind is ActionKind.GROW:
            sim.cluster.grow(job, 1, now=sim.now)
        else:
            sim.cluster.shrink(job, 1, now=sim.now)
        return True
