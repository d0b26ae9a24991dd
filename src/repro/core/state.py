"""DeepRM-style fixed-size state encoding.

The observation concatenates (lengths for P platforms, M queue slots, K
running slots, horizon H):

* **cluster image** ``P * (1 + H)`` — per platform: the free fraction now,
  then the committed occupancy fraction for each of the next H ticks
  (running jobs assumed to hold their current allocation until their
  estimated completion);
* **queue slots** ``M * (9 + P)`` — per visible pending job: presence
  flag, normalized work, elasticity-window features, slack and tightness,
  waiting time, weight, and the affinity vector over platforms;
* **running slots** ``K * 8`` — per visible running job: presence,
  remaining work, slack, current parallelism position inside the window,
  grow/shrink headroom, progress rate, lateness flag;
* **globals** (4) — backlog beyond the queue window, future arrivals
  indicator, mean pending slack, current utilization.

All features are scale-normalized and clipped to ``[-clip, clip]`` so the
policy network sees bounded inputs at any load.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import CoreConfig
from repro.core.views import slot_views
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["StateEncoder"]


class StateEncoder:
    """Encodes a :class:`~repro.sim.Simulation` into a flat float vector.

    Each observation is built as one Python list from the simulation's
    state columns, read one slot at a time (``ndarray.item``) for exactly
    the slots the state shows: the allocations, the visible queue and
    running slots and the pending jobs. At a handful of live jobs numpy's
    per-call cost would dominate a column pass, and reading no whole
    column keeps an encode O(live jobs) however long the simulation has
    run. Sums keep the order of a sequential loop, so the features are
    the same floats a per-job walk computes.
    """

    QUEUE_BASE_FEATURES = 9
    RUNNING_FEATURES = 8
    GLOBAL_FEATURES = 4

    def __init__(
        self,
        config: CoreConfig,
        platform_names: List[str],
        work_scale: float = 25.0,
        time_scale: float | None = None,
        clip: float = 4.0,
    ) -> None:
        if not platform_names:
            raise ValueError("need at least one platform")
        if work_scale <= 0:
            raise ValueError("work_scale must be positive")
        self.config = config
        self.platform_names = list(platform_names)
        self.work_scale = work_scale
        self.time_scale = float(time_scale if time_scale is not None else config.horizon)
        self.clip = clip
        self.P = len(self.platform_names)

    @property
    def obs_dim(self) -> int:
        """Total observation length."""
        cfg = self.config
        return (
            self.P * (1 + cfg.horizon)
            + cfg.queue_slots * (self.QUEUE_BASE_FEATURES + self.P)
            + cfg.running_slots * self.RUNNING_FEATURES
            + self.GLOBAL_FEATURES
        )

    # --- encoding --------------------------------------------------------------
    def encode(self, sim: "Simulation",
               views: Optional[Tuple[List[Job], List[Job]]] = None) -> np.ndarray:
        """Build the observation for the simulation's current state.

        ``views`` supplies the state's ``(queue, running)`` slot views
        (see :func:`repro.core.views.slot_views`) when the caller has
        them, so the mask, the observation and the applied action share
        one sort; without it the encoder computes them.
        """
        obs = np.array(self._row(sim, views), dtype=np.float64)
        np.clip(obs, -self.clip, self.clip, out=obs)
        return obs

    def encode_batch(
        self,
        sims: Sequence["Simulation"],
        views: Optional[Sequence[Tuple[List[Job], List[Job]]]] = None,
    ) -> np.ndarray:
        """Stacked observations for a batch of simulations, shape ``(B, D)``.

        Row ``i`` equals :meth:`encode` of ``sims[i]``; the batch pays the
        array conversion and the clip once.
        """
        rows = [self._row(sim, None if views is None else views[i])
                for i, sim in enumerate(sims)]
        obs = np.array(rows, dtype=np.float64).reshape(len(sims), self.obs_dim)
        np.clip(obs, -self.clip, self.clip, out=obs)
        return obs

    def _row(self, sim: "Simulation",
             views: Optional[Tuple[List[Job], List[Job]]]) -> list:
        """One unclipped observation as a list of Python floats.

        ``x if x > 0.0 else 0.0`` and ``1e-9 if r < 1e-9 else r`` are
        ``max(0.0, x)`` and ``max(r, 1e-9)`` without the call.
        """
        cfg = self.config
        queue, running = views if views is not None else slot_views(
            sim, cfg.queue_slots, cfg.running_slots)
        t = sim.tables
        cluster = sim.cluster
        now = sim.now
        H = cfg.horizon
        ws = self.work_scale
        ts = self.time_scale
        statics = sim.memo(self)
        work_at = t.work.item
        progress_at = t.progress.item
        deadline_at = t.deadline.item
        rate_at = t.rate.item
        platform_at = t.platform_idx.item
        parallelism_at = t.parallelism.item
        # Free units and capacities by cluster platform index.
        free_c = [c - u - o for c, u, o in zip(t.p_capacity, t.p_used,
                                               t.p_offline)]
        caps = [p.capacity for p in cluster.platforms.values()]

        # Cluster image. Difference-array trick: each allocation's
        # occupancy run [1, 1+span) becomes two endpoint writes, and one
        # sequential prefix sum per platform materializes all runs --
        # O(jobs + H) instead of O(jobs * H). Allocations are visited in
        # allocation order (``_allocations`` keys are slots).
        diffs = [[0.0] * H for _ in caps]
        for s in cluster._allocations:
            remaining = work_at(s) - progress_at(s)
            rate = rate_at(s)
            span = math.ceil((remaining if remaining > 0.0 else 0.0)
                             / (1e-9 if rate < 1e-9 else rate))
            if span > 0:
                c = platform_at(s)
                frac = parallelism_at(s) / caps[c]
                diff = diffs[c]
                diff[0] += frac
                if span < H:
                    diff[span] -= frac
        row: list = []
        for name in self.platform_names:
            c = t.pindex[name]
            row.append(free_c[c] / caps[c])
            row += accumulate(diffs[c])

        # Queue slots.
        arrival_at = t.arrival.item
        for job in queue:
            s = job._slot
            best_rate, ideal, window, tail = (
                statics.get(s) or self._statics(job, sim, statics))
            remaining = work_at(s) - progress_at(s)
            if not remaining > 0.0:
                remaining = 0.0
            to_deadline = deadline_at(s) - now
            row += (1.0, remaining / ws, *window,
                    (to_deadline - remaining / best_rate) / ts,
                    to_deadline / ideal / 4.0,  # tightness
                    (now - arrival_at(s)) / ts, *tail)
        row += [0.0] * ((cfg.queue_slots - len(queue))
                        * (self.QUEUE_BASE_FEATURES + self.P))

        # Running slots.
        min_at = t.min_par.item
        max_at = t.max_par.item
        for job in running:
            s = job._slot
            par = parallelism_at(s)
            lo = min_at(s)
            hi = max_at(s)
            rate = rate_at(s)
            remaining = work_at(s) - progress_at(s)
            if not remaining > 0.0:
                remaining = 0.0
            deadline = deadline_at(s)
            row += (1.0, remaining / ws,
                    (deadline - now - remaining / (1e-9 if rate < 1e-9 else rate))
                    / ts,
                    (par - lo) / (hi - lo if hi - lo > 1 else 1),
                    1.0 if par + 1 <= hi and free_c[platform_at(s)] >= 1 else 0.0,
                    1.0 if par - 1 >= lo else 0.0,
                    rate / 8.0,
                    1.0 if now > deadline else 0.0)
        row += [0.0] * ((cfg.running_slots - len(running))
                        * self.RUNNING_FEATURES)

        # Globals: backlog, future arrivals, mean pending slack (summed
        # sequentially in queue order), utilization.
        pending = sim.pending
        mean_slack = 0.0
        if pending:
            total = 0.0
            for job in pending:
                s = job._slot
                best_rate = (statics.get(s) or self._statics(job, sim, statics))[0]
                remaining = work_at(s) - progress_at(s)
                total += ((deadline_at(s) - now)
                          - (remaining if remaining > 0.0 else 0.0) / best_rate)
            mean_slack = total / len(pending)
        row += (max(len(pending) - cfg.queue_slots, 0) / max(cfg.queue_slots, 1),
                min(sim.num_future / 50.0, 1.0),
                mean_slack / ts,
                cluster.utilization())
        return row

    def _statics(self, job: Job, sim: "Simulation", statics: dict) -> tuple:
        """A job's time-invariant features, computed on first sight of its
        slot: best-case rate, ideal duration (floored at 1e-9), the window
        columns and the weight and affinity columns."""
        from repro.core.reward import job_ideal_duration
        from repro.sim.speedup import cached_speedup

        platforms = sim.cluster.platforms
        aff = job.affinity
        best_platform = max(aff, key=aff.get)
        best_speed = platforms[best_platform].base_speed
        s_max = cached_speedup(job.speedup_model, job.max_parallelism)
        best_rate = aff[best_platform] * best_speed * s_max
        # Ideal duration comes from the reward module so the tightness
        # feature can never drift from the reward's slowdown shaping.
        ideal = job_ideal_duration(
            job, {p: platforms[p].base_speed for p in aff if p in platforms})
        lo = job.min_parallelism
        hi = job.max_parallelism
        window = (lo / 8.0, hi / 8.0, max(hi - lo, 0) / 8.0)
        tail = (job.weight / 2.0,
                *(aff.get(p, 0.0) / 4.0 for p in self.platform_names))
        if len(statics) > 100_000:  # bound a long simulation's growth
            statics.clear()
        entry = statics[job._slot] = (best_rate, max(ideal, 1e-9), window, tail)
        return entry
