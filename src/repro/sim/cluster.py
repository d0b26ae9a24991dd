"""Cluster state: allocation ledger over heterogeneous platforms.

The cluster owns no scheduling policy. It exposes exactly the primitives
an elasticity-compatible resource manager needs:

* ``allocate(job, platform, k)`` — start a pending job with ``k`` units,
* ``grow(job, dk)`` / ``shrink(job, dk)`` — elastic reconfiguration,
* ``release(job)`` — free a finished/dropped job's units,
* ``advance(now)`` — apply one tick of progress to all running jobs.

All invariants (capacity conservation, parallelism bounds, affinity) are
enforced here with exceptions, so a buggy policy cannot corrupt state —
the property-based tests in ``tests/sim`` hammer exactly these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim import soa
from repro.sim.events import Event, EventKind, EventLog
from repro.sim.job import Job, JobState
from repro.sim.platform import Platform
from repro.sim.soa import StateTables

__all__ = ["Allocation", "Cluster"]


@dataclass
class Allocation:
    """A running job's current placement."""

    job: Job
    platform: str
    parallelism: int


class Cluster:
    """Heterogeneous pool of platforms with an allocation ledger."""

    def __init__(self, platforms: Sequence[Platform], log: Optional[EventLog] = None) -> None:
        if not platforms:
            raise ValueError("cluster needs at least one platform")
        names = [p.name for p in platforms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate platform names")
        self.platforms: Dict[str, Platform] = {p.name: p for p in platforms}
        # All unit bookkeeping lives in the SoA tables; the dict-shaped
        # accessors below are views over its platform arrays.
        self.tables = StateTables(list(self.platforms.values()))
        self._pidx = self.tables.pindex
        self._allocations: Dict[int, Allocation] = {}
        self.log = log if log is not None else EventLog()

    # --- capacity queries ---------------------------------------------------
    @property
    def platform_names(self) -> List[str]:
        """Platform names in insertion (canonical) order."""
        return list(self.platforms.keys())

    def capacity(self, platform: str) -> int:
        """Total units of a platform."""
        return self.platforms[platform].capacity

    def used_units(self, platform: str) -> int:
        """Units currently allocated on a platform."""
        return int(self.tables.p_used[self._pidx[platform]])

    def free_units(self, platform: str) -> int:
        """Units currently free on a platform (excludes offline units)."""
        t = self.tables
        i = self._pidx[platform]
        return int(t.p_capacity[i] - t.p_used[i] - t.p_offline[i])

    def offline_units(self, platform: str) -> int:
        """Units currently failed/offline on a platform."""
        return int(self.tables.p_offline[self._pidx[platform]])

    def availability(self, platform: Optional[str] = None) -> float:
        """Fraction of units online, overall or per platform."""
        t = self.tables
        if platform is not None:
            cap = self.platforms[platform].capacity
            return (cap - int(t.p_offline[self._pidx[platform]])) / cap
        total = self.total_capacity()
        return (total - t.offline_total) / total

    def total_capacity(self) -> int:
        """Sum of all platform capacities."""
        return self.tables.capacity_total

    def utilization(self, platform: Optional[str] = None) -> float:
        """Fraction of units in use, overall or per platform."""
        t = self.tables
        if platform is not None:
            return int(t.p_used[self._pidx[platform]]) / self.platforms[platform].capacity
        total = self.total_capacity()
        return t.used_total / total

    def running_jobs(self) -> List[Job]:
        """Jobs currently holding an allocation, in allocation order."""
        return [a.job for a in self._allocations.values()]

    def allocation_of(self, job: Job) -> Optional[Allocation]:
        """The job's current allocation, or None."""
        return self._allocations.get(job.job_id)

    def can_allocate(self, job: Job, platform: str, k: int) -> bool:
        """Whether ``allocate`` would succeed (no exception)."""
        return (
            platform in self.platforms
            and platform in job.affinity
            and job.state is JobState.PENDING
            and job.min_parallelism <= k <= job.max_parallelism
            and self.free_units(platform) >= k
        )

    # --- mutations ------------------------------------------------------------
    def allocate(self, job: Job, platform: str, k: int, now: int = 0) -> Allocation:
        """Start ``job`` on ``platform`` with ``k`` units.

        Raises ``ValueError`` on any invariant violation (unknown platform,
        affinity mismatch, capacity shortfall, parallelism out of range,
        job not pending).
        """
        if platform not in self.platforms:
            raise ValueError(f"unknown platform {platform!r}")
        if platform not in job.affinity:
            raise ValueError(f"job {job.job_id} has no affinity for {platform!r}")
        if job.state is not JobState.PENDING:
            raise ValueError(f"job {job.job_id} is {job.state.value}, not pending")
        if not job.min_parallelism <= k <= job.max_parallelism:
            raise ValueError(
                f"parallelism {k} outside [{job.min_parallelism}, {job.max_parallelism}]"
            )
        if self.free_units(platform) < k:
            raise ValueError(
                f"platform {platform!r} has {self.free_units(platform)} free units, need {k}"
            )
        t = self.tables
        if job._tables is not t:
            t.adopt(job)
        pi = self._pidx[platform]
        t.use_units(pi, k)
        alloc = Allocation(job=job, platform=platform, parallelism=k)
        self._allocations[job.job_id] = alloc
        slot = job._slot
        # Direct column stores (the job is adopted above): PENDING ->
        # RUNNING keeps the live set, so no deadline_dirty is needed.
        t.state[slot] = soa.RUNNING
        t.parallelism[slot] = k
        job.platform = platform
        job.start_time = now
        t.platform_idx[slot] = pi
        t.rate[slot] = job.rate_on(platform, k, self.platforms[platform].base_speed)
        t.add_running(slot)
        self.log.record(Event(now, EventKind.START, job.job_id, platform, k))
        return alloc

    def grow(self, job: Job, dk: int = 1, now: int = 0) -> int:
        """Add ``dk`` units to a running job; returns the new parallelism."""
        alloc = self._require_running(job)
        if dk <= 0:
            raise ValueError("dk must be positive")
        new_k = alloc.parallelism + dk
        if new_k > job.max_parallelism:
            raise ValueError(
                f"grow to {new_k} exceeds max_parallelism {job.max_parallelism}"
            )
        if self.free_units(alloc.platform) < dk:
            raise ValueError(f"platform {alloc.platform!r} lacks {dk} free units")
        self.tables.use_units(self._pidx[alloc.platform], dk)
        alloc.parallelism = new_k
        job.parallelism = new_k
        job.grow_count += 1
        self._refresh_rate(job, alloc)
        self.log.record(Event(now, EventKind.GROW, job.job_id, alloc.platform, new_k))
        return new_k

    def shrink(self, job: Job, dk: int = 1, now: int = 0) -> int:
        """Remove ``dk`` units from a running job; returns the new parallelism."""
        alloc = self._require_running(job)
        if dk <= 0:
            raise ValueError("dk must be positive")
        new_k = alloc.parallelism - dk
        if new_k < job.min_parallelism:
            raise ValueError(
                f"shrink to {new_k} below min_parallelism {job.min_parallelism}"
            )
        self.tables.use_units(self._pidx[alloc.platform], -dk)
        alloc.parallelism = new_k
        job.parallelism = new_k
        job.shrink_count += 1
        self._refresh_rate(job, alloc)
        self.log.record(Event(now, EventKind.SHRINK, job.job_id, alloc.platform, new_k))
        return new_k

    def can_grow(self, job: Job, dk: int = 1) -> bool:
        """Whether ``grow(job, dk)`` would succeed."""
        alloc = self._allocations.get(job.job_id)
        return (
            alloc is not None
            and dk > 0
            and alloc.parallelism + dk <= job.max_parallelism
            and self.free_units(alloc.platform) >= dk
        )

    def can_shrink(self, job: Job, dk: int = 1) -> bool:
        """Whether ``shrink(job, dk)`` would succeed."""
        alloc = self._allocations.get(job.job_id)
        return (
            alloc is not None
            and dk > 0
            and alloc.parallelism - dk >= job.min_parallelism
        )

    def take_offline(self, platform: str, n: int = 1, now: int = 0) -> int:
        """Mark ``n`` *free* units of a platform as failed.

        Only free units can be taken offline directly; to fail a busy unit
        the caller must first :meth:`preempt` a victim job (the fault
        injector does exactly that). Returns the new offline count.
        """
        if platform not in self.platforms:
            raise ValueError(f"unknown platform {platform!r}")
        if n <= 0:
            raise ValueError("n must be positive")
        if self.free_units(platform) < n:
            raise ValueError(
                f"platform {platform!r} has only {self.free_units(platform)} "
                f"free units; cannot take {n} offline"
            )
        self.tables.offline_delta(self._pidx[platform], n)
        self.log.record(Event(now, EventKind.FAIL, None, platform, n))
        return self.offline_units(platform)

    def bring_online(self, platform: str, n: int = 1, now: int = 0) -> int:
        """Repair ``n`` offline units of a platform; returns the new offline count."""
        if platform not in self.platforms:
            raise ValueError(f"unknown platform {platform!r}")
        if n <= 0:
            raise ValueError("n must be positive")
        if self.offline_units(platform) < n:
            raise ValueError(
                f"platform {platform!r} has only {self.offline_units(platform)} "
                f"offline units; cannot repair {n}"
            )
        self.tables.offline_delta(self._pidx[platform], -n)
        self.log.record(Event(now, EventKind.REPAIR, None, platform, n))
        return self.offline_units(platform)

    def preempt(self, job: Job, now: int = 0) -> None:
        """Evict a running job back to the pending state.

        Progress is retained (checkpoint-on-preempt semantics); all of the
        job's units return to the free pool. The caller is responsible for
        re-queueing the job (the :class:`~repro.sim.simulation.Simulation`
        and the fault injector do so).
        """
        alloc = self._require_running(job)
        t = self.tables
        t.use_units(self._pidx[alloc.platform], -alloc.parallelism)
        del self._allocations[job.job_id]
        self.log.record(
            Event(now, EventKind.PREEMPT, job.job_id, alloc.platform, alloc.parallelism)
        )
        job.state = JobState.PENDING
        job.platform = None
        job.parallelism = 0
        job.preempt_count += 1
        slot = job._slot
        t.remove_running(slot)
        t.rate[slot] = 0.0
        t.platform_idx[slot] = -1

    def can_migrate(self, job: Job, platform: str, k: int) -> bool:
        """Whether ``migrate`` would succeed."""
        alloc = self._allocations.get(job.job_id)
        return (
            alloc is not None
            and platform in self.platforms
            and platform != alloc.platform
            and platform in job.affinity
            and job.min_parallelism <= k <= job.max_parallelism
            and self.free_units(platform) >= k
        )

    def migrate(self, job: Job, platform: str, k: int, now: int = 0,
                cost: float = 0.0) -> Allocation:
        """Move a running job to a different platform with ``k`` units.

        ``cost`` models checkpoint/restart overhead as lost progress
        (clamped at zero). Atomic: on any validation failure the original
        allocation is untouched.
        """
        alloc = self._require_running(job)
        if platform not in self.platforms:
            raise ValueError(f"unknown platform {platform!r}")
        if platform == alloc.platform:
            raise ValueError("migration target must differ from current platform")
        if platform not in job.affinity:
            raise ValueError(f"job {job.job_id} has no affinity for {platform!r}")
        if not job.min_parallelism <= k <= job.max_parallelism:
            raise ValueError(
                f"parallelism {k} outside [{job.min_parallelism}, {job.max_parallelism}]"
            )
        if self.free_units(platform) < k:
            raise ValueError(
                f"platform {platform!r} has {self.free_units(platform)} free units, need {k}"
            )
        if cost < 0:
            raise ValueError("cost must be non-negative")
        t = self.tables
        t.use_units(self._pidx[alloc.platform], -alloc.parallelism)
        t.use_units(self._pidx[platform], k)
        alloc.platform = platform
        alloc.parallelism = k
        job.platform = platform
        job.parallelism = k
        job.progress = max(0.0, job.progress - cost)
        job.migrate_count += 1
        t.platform_idx[job._slot] = self._pidx[platform]
        self._refresh_rate(job, alloc)
        self.log.record(Event(now, EventKind.MIGRATE, job.job_id, platform, k))
        return alloc

    def release(self, job: Job, now: int = 0, kind: EventKind = EventKind.FINISH) -> None:
        """Free a job's allocation (on finish or drop)."""
        alloc = self._require_running(job)
        t = self.tables
        t.use_units(self._pidx[alloc.platform], -alloc.parallelism)
        del self._allocations[job.job_id]
        slot = job._slot
        t.parallelism[slot] = 0
        t.remove_running(slot)
        t.rate[slot] = 0.0
        self.log.record(Event(now, EventKind.FINISH if kind is EventKind.FINISH else kind,
                              job.job_id, alloc.platform))

    def advance(self, now: int) -> List[Job]:
        """Apply one tick of progress to all running jobs.

        Returns the jobs that completed during this tick (their
        ``finish_time`` is set to ``now + 1``, i.e. the end of the tick)
        with allocations released. Completion order is allocation order.

        The column path below is bit-identical to the scalar loop: the
        per-slot ``rate`` column is maintained to equal
        ``rate_on(platform, parallelism, base_speed)`` at every
        reconfiguration, elementwise float64 adds match scalar adds, and
        finishers are released in allocation (``alloc_seq``) order.
        """
        t = self.tables
        if not soa.use_vector(t.run_count):
            return self._advance_scalar(now)
        slots = t.running_slots()
        t.progress[slots] += t.rate[slots]
        done = t.progress[slots] >= t.work[slots] - 1e-9
        if not done.any():
            return []
        done_slots = slots[done]
        done_slots = done_slots[np.argsort(t.alloc_seq[done_slots])]
        finished: List[Job] = []
        for s in done_slots.tolist():
            t.progress[s] = t.work[s]
            t.state[s] = soa.FINISHED
            t.finish[s] = now + 1
            finished.append(t.jobs[s])
        for job in finished:
            self.release(job, now=now + 1, kind=EventKind.FINISH)
        return finished

    def _advance_scalar(self, now: int) -> List[Job]:
        """Scalar-column advance for running sets below the vector cutoff.

        Reads/writes the columns one slot at a time in allocation order,
        skipping both numpy's fixed per-reduction overhead and the
        per-field view descriptors.
        """
        t = self.tables
        finished: List[Job] = []
        # Releases happen after the loop, so iterating the live dict
        # view is safe.
        for alloc in self._allocations.values():
            job = alloc.job
            s = job._slot
            prog = t.progress.item(s) + t.rate.item(s)
            work = t.work.item(s)
            if prog >= work - 1e-9:
                t.progress[s] = work
                t.state[s] = soa.FINISHED
                t.finish[s] = now + 1
                finished.append(job)
            else:
                t.progress[s] = prog
        for job in finished:
            self.release(job, now=now + 1, kind=EventKind.FINISH)
        return finished

    # --- internals -------------------------------------------------------------
    def _refresh_rate(self, job: Job, alloc: Allocation) -> None:
        base = self.platforms[alloc.platform].base_speed
        self.tables.rate[job._slot] = job.rate_on(
            alloc.platform, alloc.parallelism, base)

    def _require_running(self, job: Job) -> Allocation:
        alloc = self._allocations.get(job.job_id)
        if alloc is None:
            raise ValueError(f"job {job.job_id} holds no allocation")
        return alloc
