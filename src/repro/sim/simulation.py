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

from repro.sim.cluster import Cluster
from repro.sim.events import Event, EventKind, EventLog
from repro.sim.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.energy import EnergyMeter
    from repro.sim.faults import FaultInjector
from repro.sim.metrics import (
    JobRecord,
    MetricsReport,
    compute_metrics,
    records_from_tables,
)
from repro.sim.platform import Platform

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
        # Future jobs sorted by arrival; stable for equal arrivals.
        self._future: Deque[Job] = deque(sorted(jobs, key=lambda j: (j.arrival_time, j.job_id)))
        for job in self._future:
            if job.state is not JobState.PENDING:
                raise ValueError(f"job {job.job_id} already {job.state.value}")
        self.pending: List[Job] = []
        self.completed: List[Job] = []
        self.dropped: List[Job] = []
        self.now: int = 0
        self.utilization_series: List[float] = []
        # Every job in adoption (slot) order; the cluster's slot -> job
        # list itself, so the two can never drift apart.
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
        self._admit_arrivals()

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
        preserving the canonical ``(arrival_time, job_id)`` order, so a
        run fed incrementally is indistinguishable from one constructed
        with the whole trace up front.
        """
        if job.state is not JobState.PENDING:
            raise ValueError(f"job {job.job_id} already {job.state.value}")
        if job.arrival_time < self.now:
            raise ValueError(
                f"job {job.job_id} arrives at {job.arrival_time}, "
                f"before the current tick {self.now}")
        self._register_job(job)
        if job.arrival_time <= self.now:
            self.pending.append(job)
            self.log.record(Event(self.now, EventKind.ARRIVAL, job.job_id))
            return
        future = self._future
        key = (job.arrival_time, job.job_id)
        if not future or key >= (future[-1].arrival_time, future[-1].job_id):
            future.append(job)  # common case: submissions arrive in order
        else:
            idx = len(future)
            while idx > 0 and (future[idx - 1].arrival_time,
                               future[idx - 1].job_id) > key:
                idx -= 1
            future.insert(idx, job)
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
        """Per-job outcome records for all jobs that arrived in the trace."""
        base_speeds: Dict[str, float] = {
            name: p.base_speed for name, p in self.cluster.platforms.items()
        }
        # ``_all_jobs`` is the tables' slot -> job list, so records read
        # whole columns instead of re-touching every Job object.
        return records_from_tables(self.tables, self._all_jobs, self.now,
                                   base_speeds)

    def metrics(self) -> MetricsReport:
        """Aggregate metrics at the current point in time."""
        return compute_metrics(
            self.records(), utilization_series=self.utilization_series, horizon=self.now
        )
