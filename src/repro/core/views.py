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
    deadline_at = sim.tables.deadline.item
    if callable(priority):
        key = lambda j: (-priority(j), deadline_at(j._slot), j._slot)  # noqa: E731
    else:
        key = lambda j: (deadline_at(j._slot), j._slot)                # noqa: E731
    return sorted(sim.pending, key=key)[:limit]


def running_view(sim: "Simulation", limit: int) -> List[Job]:
    """Running jobs by ascending slack at their current rate, truncated.

    Slack here is ``(deadline - now) - remaining/rate`` with the job's
    *current* allocation — the natural urgency order for grow decisions —
    read from its slot's columns (the ``rate`` column is the allocation's
    rate).
    """
    t = sim.tables
    now = sim.now

    def key(job: Job) -> tuple:
        s = job._slot
        remaining = t.work.item(s) - t.progress.item(s)  # max(0.0, ...)
        rate = t.rate.item(s)                            # max(..., 1e-9)
        return ((t.deadline.item(s) - now)
                - (remaining if remaining > 0.0 else 0.0)
                / (1e-9 if rate < 1e-9 else rate), s)

    return sorted(sim.running, key=key)[:limit]


def slot_views(sim: "Simulation", queue_limit: int,
               running_limit: int) -> "tuple[List[Job], List[Job]]":
    """Both slot views at once.

    The encoder, the action-space mask and the applied action each need
    the views of the decision state; every rollout path computes them
    once per state with this function and shares the pair.
    """
    return queue_view(sim, queue_limit), running_view(sim, running_limit)
