"""Canonical slot views shared by the state encoder and the action space.

The policy's queue/running slots are *urgency-ordered*: queue slots by
deadline (EDF order), running slots by remaining slack. Stable slot
semantics ("slot 0 = most urgent") dramatically simplify what the policy
network must learn — it no longer has to perform cross-slot comparisons
from scratch. The encoder and the action space import these helpers so
their views can never diverge (slot i in the observation is exactly the
job that ``admit(i, ...)`` touches).
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["queue_view", "running_view", "slot_views"]


def queue_view(sim: "Simulation", limit: int) -> List[Job]:
    """Pending jobs in urgency order (ties by id), truncated to ``limit``.

    Flat simulations order by deadline (EDF). DAG simulations expose
    ``stage_priority`` (downstream critical-path length); there the
    primary key is descending CP — all stages of a graph share its
    deadline, so deadline order carries no information, while CP order
    surfaces the stages that gate the most downstream work.
    """
    priority = getattr(sim, "stage_priority", None)
    if callable(priority):
        key = lambda j: (-priority(j), j.deadline, j.job_id)  # noqa: E731
    else:
        key = lambda j: (j.deadline, j.job_id)                # noqa: E731
    ordered = sorted(sim.pending, key=key)
    return ordered[:limit]


def running_view(sim: "Simulation", limit: int) -> List[Job]:
    """Running jobs by ascending slack at their current rate, truncated.

    Slack here is ``(deadline - now) - remaining/rate`` with the job's
    *current* allocation — the natural urgency order for grow decisions.
    """
    now = sim.now

    def slack(job: Job) -> float:
        alloc = sim.cluster.allocation_of(job)
        if alloc is None:  # pragma: no cover - defensive
            return float("inf")
        memo = job._slack_memo
        if memo is not None and memo[0] == now and memo[1] == job.progress \
                and memo[2] == alloc.parallelism and memo[3] == alloc.platform:
            return memo[4]
        base = sim.cluster.platforms[alloc.platform].base_speed
        rate = job.rate_on(alloc.platform, alloc.parallelism, base)
        value = (job.deadline - now) - job.remaining_work / max(rate, 1e-9)
        job._slack_memo = (now, job.progress, alloc.parallelism, alloc.platform,
                           value)
        return value

    ordered = sorted(sim.running, key=lambda j: (slack(j), j.job_id))
    return ordered[:limit]


def slot_views(sim: "Simulation", queue_limit: int,
               running_limit: int) -> "tuple[List[Job], List[Job]]":
    """Both slot views at once.

    The encoder and the action-space mask each need both views at every
    decision point; computing them once per state (the vectorized
    environment caches the pair per step) halves the sort work on the
    rollout hot path.
    """
    return queue_view(sim, queue_limit), running_view(sim, running_limit)
