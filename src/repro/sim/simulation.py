"""Tick-loop driver combining a job trace, a pending queue, and a cluster.

The per-tick protocol (shared by heuristic baselines and the RL
environment, so both see *exactly* the same dynamics):

1. jobs with ``arrival_time == now`` move into the pending queue,
2. the scheduling policy acts (any number of allocate/grow/shrink calls),
3. utilization for this tick is sampled,
4. running jobs progress one tick; completions are collected,
5. time advances; deadline misses are recorded for jobs that are now late
   (once per job). With ``drop_on_miss`` pending late jobs are abandoned
   (running ones are always allowed to finish late, accruing tardiness).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.events import Event, EventKind, EventLog
from repro.sim.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.energy import EnergyMeter
    from repro.sim.faults import FaultInjector
from repro.sim.metrics import (
    JobRecord,
    MetricsReport,
    SegmentMetrics,
    merge_segments,
    record_from_job,
)
from repro.sim.platform import Platform
from repro.sim.soa import DROPPED, FINISHED

__all__ = ["SimulationConfig", "Simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Static simulation parameters.

    Parameters
    ----------
    drop_on_miss:
        Abandon *pending* jobs once their deadline passes (running jobs
        always finish, late). Time-critical systems that discard stale
        work set this True; default False counts tardiness instead.
    horizon:
        Hard cap on simulated ticks (safety for RL episodes); ``None``
        means run until the trace drains.
    """

    drop_on_miss: bool = False
    horizon: Optional[int] = None


class Simulation:
    """One simulation run over a fixed job trace."""

    def __init__(
        self,
        platforms: Sequence[Platform],
        jobs: Sequence[Job],
        config: SimulationConfig = SimulationConfig(),
        fault_injector: Optional["FaultInjector"] = None,
        energy_meter: Optional["EnergyMeter"] = None,
    ) -> None:
        self.config = config
        self.log = EventLog()
        self.cluster = Cluster(platforms, log=self.log)
        self.fault_injector = fault_injector
        self.energy_meter = energy_meter
        for position, job in enumerate(jobs):
            if job.state is not JobState.PENDING:
                raise ValueError(
                    f"trace job {position} already {job.state.value}")
        # Future jobs sorted by arrival; the sort is stable, so equal
        # arrivals keep their trace order (and take their slots in it).
        self._future: Deque[Job] = deque(
            sorted(jobs, key=lambda j: j.arrival_time))
        self.pending: List[Job] = []
        self.completed: List[Job] = []
        self.dropped: List[Job] = []
        self.now: int = 0
        self.utilization_series: List[float] = []
        # Every job in adoption (slot) order, so ``_all_jobs[job_id]`` is
        # the job; the cluster's slot -> job list itself, so the two can
        # never drift apart.
        self._all_jobs: List[Job] = self.cluster.jobs
        self._all_jobs.extend(self._future)
        # Adopt the whole trace into the cluster's SoA tables up front:
        # hot Job fields become column views, and the kernel/miss-scan
        # fast paths can reduce over contiguous arrays.
        self.tables = self.cluster.tables
        self.tables.adopt_all(self._all_jobs)
        self._miss_bound: float = self.tables.min_live_deadline()
        self.tables.deadline_dirty = False
        # Plain-scalar mirror of ``_future[0].arrival_time``: the admit
        # check runs every tick and the kernel projects it per decision,
        # so keep it out of the table-view descriptors.
        self._next_arrival: float = (
            self._future[0].arrival_time if self._future else math.inf)
        #: Policy-layer memos by owner; see :meth:`memo`.
        self.memos: Dict[object, object] = {}
        self._admit_arrivals()

    def memo(self, owner) -> dict:
        """``owner``'s memo dict for this simulation. Memos key by slot
        (``job_id``), which names a job only within this simulation, so
        they live and die with it, and no owner (an encoder, an action
        space) can alias one simulation's jobs with another's."""
        memo = self.memos.get(owner)
        if memo is None:
            memo = self.memos[owner] = {}
        return memo

    # --- queue/state views ----------------------------------------------------
    @property
    def running(self) -> List[Job]:
        """Jobs currently executing."""
        return self.cluster.running_jobs()

    @property
    def num_future(self) -> int:
        """Jobs that have not arrived yet."""
        return len(self._future)

    def is_done(self) -> bool:
        """True when no work remains or the horizon is exhausted."""
        if self.config.horizon is not None and self.now >= self.config.horizon:
            return True
        return (not self._future and not self.pending
                and not self.cluster._allocations)

    # --- tick protocol ----------------------------------------------------------
    def _admit_arrivals(self) -> None:
        future = self._future
        while self._next_arrival <= self.now:
            job = future.popleft()
            self._next_arrival = (
                future[0].arrival_time if future else math.inf)
            self.pending.append(job)
            self.log.record(Event(self.now, EventKind.ARRIVAL, job.job_id))

    def sample_utilization(self) -> float:
        """Record (and return) the cluster utilization for the current tick."""
        u = self.cluster.utilization()
        self.utilization_series.append(u)
        return u

    def advance_tick(self) -> List[Job]:
        """Steps 3-5 of the tick protocol; returns jobs finished this tick."""
        if self.fault_injector is not None:
            self.fault_injector.step(self)
        self.sample_utilization()
        if self.energy_meter is not None:
            self.energy_meter.step(self.cluster)
        finished = self.cluster.advance(self.now)
        self.completed.extend(finished)
        self.now += 1
        self.log.record(Event(self.now, EventKind.TICK))
        self._record_misses()
        self._admit_arrivals()
        return finished

    def _record_misses(self) -> None:
        # Fast path: ``_miss_bound`` is a lower bound on the minimum
        # deadline over live unmissed jobs (future jobs included — their
        # deadlines sit past ``now`` by construction). While ``now`` has
        # not crossed it, no miss can occur and the O(jobs) scan is
        # skipped. Any mutation that could lower the true minimum
        # (deadline rewrites, un-missing, resurrecting a job, adopting a
        # new one) raises ``deadline_dirty``, forcing a recompute.
        t = self.tables
        if t.deadline_dirty:
            self._miss_bound = t.min_live_deadline()
            t.deadline_dirty = False
        if self.now <= self._miss_bound:
            return
        for job in list(self.pending) + self.running:
            if not job.miss_recorded and self.now > job.deadline:
                job.miss_recorded = True
                self.log.record(Event(self.now, EventKind.MISS, job.job_id))
                if self.config.drop_on_miss and job.state is JobState.PENDING:
                    job.state = JobState.DROPPED
                    self.pending.remove(job)
                    self.dropped.append(job)
                    self.log.record(Event(self.now, EventKind.DROP, job.job_id))
        self._miss_bound = t.min_live_deadline()

    def _register_job(self, job: Job) -> None:
        """Adopt a dynamically materialized job (e.g. a DAG stage release)."""
        self.tables.adopt(job)  # raises deadline_dirty for the miss scan
        self._all_jobs.append(job)

    def inject_job(self, job: Job) -> None:
        """Admit an externally-submitted job into a live simulation.

        The online serving layer feeds jobs in as they arrive over the
        wire instead of handing the full trace to the constructor. A job
        whose ``arrival_time`` equals the current tick enters the pending
        queue immediately (with the same ``ARRIVAL`` event the admit scan
        would log); later arrivals are spliced into the future queue
        after every job arriving no later, where the constructor's stable
        sort puts them, so a run fed incrementally is indistinguishable
        from one constructed with the whole trace up front.
        """
        if job.state is not JobState.PENDING:
            raise ValueError(f"injected job already {job.state.value}")
        arrival = job.arrival_time
        if arrival < self.now:
            raise ValueError(
                f"injected job arrives at {arrival}, "
                f"before the current tick {self.now}")
        self._register_job(job)
        if arrival <= self.now:
            self.pending.append(job)
            self.log.record(Event(self.now, EventKind.ARRIVAL, job.job_id))
            return
        future = self._future
        idx = len(future)
        while idx > 0 and future[idx - 1].arrival_time > arrival:
            idx -= 1
        future.insert(idx, job)  # common case: appended (arrivals in order)
        self._next_arrival = future[0].arrival_time

    # --- convenience ------------------------------------------------------------
    def drive(self, policy, max_ticks: Optional[int] = None,
              engine: str = "tick") -> None:
        """Drive the simulation to completion under ``policy``.

        ``policy`` must implement ``schedule(sim)`` — called once per tick
        before time advances (see :mod:`repro.baselines`).

        ``engine`` selects the driver: ``"tick"`` is the dense per-tick
        loop below; ``"event"`` delegates to the event-driven
        :class:`~repro.sim.kernel.EventKernel`, which produces bit-exact
        identical results while fast-forwarding across idle ticks.

        Nothing is reduced: callers read :meth:`metrics` or
        :meth:`records` once, when they need them.
        """
        if engine not in ("tick", "event"):
            raise ValueError(f"engine must be 'tick' or 'event', got {engine!r}")
        if engine == "event":
            from repro.sim.kernel import EventKernel

            EventKernel(self, policy).drive(max_ticks)
            return
        ticks = 0
        limit = max_ticks if max_ticks is not None else self.config.horizon
        while not self.is_done():
            policy.schedule(self)
            self.advance_tick()
            ticks += 1
            if limit is not None and ticks >= limit:
                break

    def run_policy(self, policy, max_ticks: Optional[int] = None,
                   engine: str = "tick") -> MetricsReport:
        """:meth:`drive` the simulation, then return its :meth:`metrics`."""
        self.drive(policy, max_ticks=max_ticks, engine=engine)
        return self.metrics()

    def records(self) -> List[JobRecord]:
        """Per-job outcome records for all jobs that arrived in the trace,
        in slot order: :func:`~repro.sim.metrics.record_from_job` over
        each job object, the reference :meth:`segment` is held to."""
        speeds = {name: p.base_speed
                  for name, p in self.cluster.platforms.items()}
        return [record_from_job(job, speeds) for job in self._all_jobs
                if job.arrival_time <= self.now]

    def segment(self, offset: float = 0.0) -> SegmentMetrics:
        """This run's metric value columns, straight from the SoA tables.

        Covers the jobs that arrived by ``now``, in slot order. Every
        float comes from the operations ``record_from_job`` and
        :meth:`SegmentMetrics.from_records` apply job by job, so the
        result equals ``SegmentMetrics.from_records(self.records(),
        self.utilization_series, now + offset, offset)`` column for
        column. ``offset`` shifts finish times and the horizon onto a
        global time axis (a windowed cell's clock is re-based to 0).
        """
        t = self.tables
        jobs = self._all_jobs
        idx = np.flatnonzero(t.arrival[:t.n_jobs] <= self.now)
        # Ideal duration: work at max parallelism on the best platform.
        # Rounding is monotone, so scaling the best affinity x speed by
        # the (positive) speedup gives record_from_job's maximum.
        speedup = [jobs[i].speedup_model.speedup(k)
                   for i, k in zip(idx.tolist(), t.max_par[idx].tolist())]
        speeds = np.array([p.base_speed
                           for p in self.cluster.platforms.values()])
        best_rate = (t.affinity[idx] * speeds).max(axis=1) \
            * np.array(speedup, dtype=np.float64)
        ideal = t.work[idx] / best_rate

        state = t.state[idx]
        stored_finish = t.finish[idx]
        finished = (state == FINISHED) & ~np.isnan(stored_finish)
        dropped = state == DROPPED
        finish = np.where(finished, stored_finish, np.nan)
        deadline = t.deadline[idx]
        late = finish - deadline
        jct = finish - t.arrival[idx]

        class_id = t.class_id[idx]
        names = t.class_names
        classes = sorted({names[c] for c in np.unique(class_id).tolist()})
        position = np.zeros(len(names), dtype=np.int32)
        for p, name in enumerate(classes):
            position[names.index(name)] = p
        return SegmentMetrics(
            n_jobs=len(idx),
            classes=classes,
            class_idx=position[class_id],
            finished=finished,
            missed=np.where(finished, finish > deadline,
                            dropped | t.miss[idx]),
            dropped=dropped,
            slowdown=jct / np.maximum(ideal, 1e-9),
            jct=jct,
            tardiness=np.where(late > 0.0, late, 0.0),
            finish=finish + offset,
            utilization=np.asarray(self.utilization_series, dtype=np.float64),
            horizon=float(self.now + offset),
        )

    def metrics(self) -> MetricsReport:
        """Aggregate metrics at the current point in time."""
        return merge_segments([self.segment()])
