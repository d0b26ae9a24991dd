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
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import CoreConfig
from repro.core.views import queue_view, running_view
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["StateEncoder"]


class _Memo:
    """One simulation's encoder memos (see :meth:`Simulation.memo`): the
    static per-job features, queue and running rows, occupancy spans and
    pending slacks."""

    __slots__ = ("statics", "qrow", "rrow", "span", "slack")

    def __init__(self) -> None:
        self.statics: dict = {}
        self.qrow: dict = {}
        self.rrow: dict = {}
        self.span: dict = {}
        self.slack: dict = {}


class StateEncoder:
    """Encodes a :class:`~repro.sim.Simulation` into a flat float vector."""

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
        self._pidx = {p: i for i, p in enumerate(self.platform_names)}

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

        ``views`` optionally supplies precomputed ``(queue, running)``
        slot views (see :func:`repro.core.views.slot_views`) so callers
        that also compute an action mask can share the sort work.
        """
        obs = np.zeros(self.obs_dim)
        self._encode_into(sim, obs, views)
        return np.clip(obs, -self.clip, self.clip)

    def encode_batch(
        self,
        sims: Sequence["Simulation"],
        views: Optional[Sequence[Tuple[List[Job], List[Job]]]] = None,
    ) -> np.ndarray:
        """Stacked observations for a batch of simulations, shape ``(B, D)``.

        Feature values are identical to per-sim :meth:`encode`; the win is
        batching the fixed-cost numpy work (allocation, clipping) across
        the batch — the vectorized environment's encode hot path.
        """
        cfg = self.config
        obs = np.zeros((len(sims), self.obs_dim))
        end_image = self.P * (1 + cfg.horizon)
        end_queue = end_image + cfg.queue_slots * (self.QUEUE_BASE_FEATURES + self.P)
        end_running = end_queue + cfg.running_slots * self.RUNNING_FEATURES
        # Block views reshaped once for the whole batch (per-row reshapes
        # are a measurable fixed cost on the rollout hot path).
        image = obs[:, :end_image].reshape(-1, self.P, 1 + cfg.horizon)
        queue_f = obs[:, end_image:end_queue].reshape(
            -1, cfg.queue_slots, self.QUEUE_BASE_FEATURES + self.P)
        running_f = obs[:, end_queue:end_running].reshape(
            -1, cfg.running_slots, self.RUNNING_FEATURES)
        global_f = obs[:, end_running:]
        for i, sim in enumerate(sims):
            memo = sim.memo(self, _Memo)
            queue, running = views[i] if views is not None else (
                queue_view(sim, cfg.queue_slots),
                running_view(sim, cfg.running_slots))
            self._cluster_image(sim, image[i], memo)
            self._queue_features(sim, queue, queue_f[i], memo)
            self._running_features(sim, running, running_f[i], memo)
            self._global_features(sim, global_f[i], memo)
        np.clip(obs, -self.clip, self.clip, out=obs)
        return obs

    def _encode_into(self, sim: "Simulation", out: np.ndarray,
                     views: Optional[Tuple[List[Job], List[Job]]] = None) -> None:
        """Fill one pre-zeroed observation row (unclipped)."""
        cfg = self.config
        memo = sim.memo(self, _Memo)
        queue, running = views if views is not None else (
            queue_view(sim, cfg.queue_slots), running_view(sim, cfg.running_slots))
        end_image = self.P * (1 + cfg.horizon)
        end_queue = end_image + cfg.queue_slots * (self.QUEUE_BASE_FEATURES + self.P)
        end_running = end_queue + cfg.running_slots * self.RUNNING_FEATURES
        self._cluster_image(sim, out[:end_image].reshape(self.P, 1 + cfg.horizon),
                            memo)
        self._queue_features(
            sim, queue,
            out[end_image:end_queue].reshape(cfg.queue_slots,
                                             self.QUEUE_BASE_FEATURES + self.P),
            memo)
        self._running_features(
            sim, running,
            out[end_queue:end_running].reshape(cfg.running_slots,
                                               self.RUNNING_FEATURES),
            memo)
        self._global_features(sim, out[end_running:], memo)

    def _cluster_image(self, sim: "Simulation", image: np.ndarray,
                       memo: _Memo) -> None:
        H = self.config.horizon
        cluster = sim.cluster
        caps = [cluster.platforms[p].capacity for p in self.platform_names]
        for i, p in enumerate(self.platform_names):
            image[i, 0] = cluster.free_units(p) / caps[i]
        # Difference-array trick: each job's occupancy run [1, 1+span)
        # becomes two endpoint writes, and one cumulative sum per platform
        # materializes all runs — O(jobs + H) instead of O(jobs * H).
        # (i, span, frac) per allocation is memoized on (platform, k,
        # progress): within a tick the agent takes several actions, so the
        # same projections recur across consecutive encodes.
        any_runs = False
        cache = memo.span
        for alloc in cluster._allocations.values():
            alloc_job = alloc.job
            key = (alloc_job.job_id, alloc.platform, alloc.parallelism,
                   alloc_job.progress)
            entry = cache.get(key)
            if entry is None:
                i = self._pidx[alloc.platform]
                platform = cluster.platforms[alloc.platform]
                rate = alloc_job.rate_on(alloc.platform, alloc.parallelism,
                                         platform.base_speed)
                span = min(math.ceil(alloc_job.remaining_work / max(rate, 1e-9)), H)
                entry = (i, span, alloc.parallelism / caps[i])
                if len(cache) > 50_000:
                    cache.clear()
                cache[key] = entry
            i, span, frac = entry
            if span > 0:
                image[i, 1] += frac
                if span < H:
                    image[i, 1 + span] -= frac
                any_runs = True
        if any_runs:
            np.cumsum(image[:, 1:], axis=1, out=image[:, 1:])

    def _queue_features(self, sim: "Simulation", queue: List[Job],
                        out: np.ndarray, memo: _Memo) -> None:
        now = sim.now
        cache = memo.qrow
        for m, job in enumerate(queue):
            # A pending job's whole row is a function of (job, now,
            # remaining work); within one tick the agent takes several
            # actions, so rows repeat across consecutive encodes.
            key = (job.job_id, now, job.progress)
            row = cache.get(key)
            if row is None:
                best_rate, ideal, qa, qb = self._job_statics(job, sim, memo)
                row = np.empty(out.shape[1])
                row[0] = 1.0
                row[1] = job.remaining_work / self.work_scale
                row[2:5] = qa
                row[5] = ((job.deadline - now) - job.remaining_work / best_rate) \
                    / self.time_scale
                row[6] = (job.deadline - now) / max(ideal, 1e-9) / 4.0  # tightness
                row[7] = (now - job.arrival_time) / self.time_scale
                row[8:] = qb
                if len(cache) > 50_000:
                    cache.clear()
                cache[key] = row
            out[m, :] = row

    def _running_features(self, sim: "Simulation", running: List[Job],
                          out: np.ndarray, memo: _Memo) -> None:
        cluster = sim.cluster
        now = sim.now
        free = {p: cluster.free_units(p) for p in self.platform_names} \
            if running else {}
        cache = memo.rrow
        for k, job in enumerate(running):
            alloc = cluster.allocation_of(job)
            if alloc is None:  # pragma: no cover - defensive
                continue
            par = alloc.parallelism
            growable = par + 1 <= job.max_parallelism and free[alloc.platform] >= 1
            # The full row is determined by (job, now, progress, placement,
            # growability); intra-tick action substeps hit the memo.
            key = (job.job_id, now, job.progress, alloc.platform, par, growable)
            row = cache.get(key)
            if row is None:
                platform = cluster.platforms[alloc.platform]
                rate = job.rate_on(alloc.platform, par, platform.base_speed)
                remaining = job.remaining_work
                span = max(job.max_parallelism - job.min_parallelism, 1)
                row = (
                    1.0,
                    remaining / self.work_scale,
                    (job.deadline - now - remaining / max(rate, 1e-9))
                    / self.time_scale,
                    (par - job.min_parallelism) / span,
                    1.0 if growable else 0.0,
                    1.0 if par - 1 >= job.min_parallelism else 0.0,
                    rate / 8.0,
                    1.0 if now > job.deadline else 0.0,
                )
                if len(cache) > 50_000:
                    cache.clear()
                cache[key] = row
            out[k, :] = row

    def _global_features(self, sim: "Simulation", out: np.ndarray,
                         memo: _Memo) -> None:
        cfg = self.config
        now = sim.now
        backlog = max(len(sim.pending) - cfg.queue_slots, 0)
        mean_slack = 0.0
        if sim.pending:
            mean_slack = self._mean_pending_slack(sim, now, memo)
        out[0] = backlog / max(cfg.queue_slots, 1)
        out[1] = min(sim.num_future / 50.0, 1.0)
        out[2] = mean_slack / self.time_scale
        out[3] = sim.cluster.utilization()

    def _mean_pending_slack(self, sim: "Simulation", now: int,
                            memo: _Memo) -> float:
        total = 0.0
        cache = memo.slack
        for job in sim.pending:
            key = (job.job_id, now, job.progress)
            s = cache.get(key)
            if s is None:
                best_rate = self._job_statics(job, sim, memo)[0]
                s = (job.deadline - now) - job.remaining_work / best_rate
                if len(cache) > 50_000:
                    cache.clear()
                cache[key] = s
            total += s
        return total / len(sim.pending)

    def _job_statics(self, job: Job, sim: "Simulation", memo: _Memo) -> tuple:
        """Cached static per-job features: best-case rate, ideal duration,
        and the time-invariant queue columns."""
        cache = memo.statics
        entry = cache.get(job.job_id)
        if entry is None:
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
            span = max(job.max_parallelism - job.min_parallelism, 0)
            qa = np.array([job.min_parallelism / 8.0, job.max_parallelism / 8.0,
                           span / 8.0])
            qb = np.empty(1 + self.P)
            qb[0] = job.weight / 2.0
            for i, p in enumerate(self.platform_names):
                qb[1 + i] = aff.get(p, 0.0) / 4.0
            if len(cache) > 100_000:  # bound a long simulation's growth
                cache.clear()
            entry = (best_rate, ideal, qa, qb)
            cache[job.job_id] = entry
        return entry
