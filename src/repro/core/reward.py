"""Deadline-aware reward shaping.

The per-tick reward combines four terms (experiment E8 ablates them):

* **slowdown shaping** (DeepRM): ``-sum_{j in system} w_j / ideal_j`` —
  summed over the episode this equals the negative weighted slowdown, so
  maximizing return minimizes mean weighted slowdown;
* **miss penalty**: ``-beta_miss * w_j`` once, at the tick a job first
  becomes late — the time-critical signal;
* **tardiness penalty**: ``-beta_tardy * w_j`` per tick a late job is
  still unfinished — pressure to clear late work quickly;
* **utilization bonus**: ``+eta_util * utilization`` — a small tie-breaker
  toward keeping the cluster busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["RewardWeights", "tick_reward", "job_ideal_duration"]


@dataclass(frozen=True)
class RewardWeights:
    """Weights of the four reward components."""

    slowdown: float = 1.0
    miss: float = 10.0
    tardiness: float = 0.5
    utilization: float = 0.1

    def __post_init__(self) -> None:
        for name in ("slowdown", "miss", "tardiness", "utilization"):
            if getattr(self, name) < 0:
                raise ValueError(f"reward weight {name} must be non-negative")


def job_ideal_duration(job, base_speeds: Dict[str, float]) -> float:
    """Best-case duration: max parallelism on the job's fastest platform."""
    from repro.sim.speedup import cached_speedup

    s = cached_speedup(job.speedup_model, job.max_parallelism)
    best_rate = max(
        job.affinity[p] * base_speeds[p] * s
        for p in job.affinity
        if p in base_speeds
    )
    return job.work / best_rate


def tick_reward(
    sim: "Simulation",
    weights: RewardWeights,
    newly_missed: int,
    newly_missed_weight: float,
    utilization: float,
) -> float:
    """Reward for one simulator tick (computed *after* the tick advanced).

    ``newly_missed`` / ``newly_missed_weight`` are the count and total
    weight of jobs whose deadline passed during this tick; the caller
    (the environment) tracks them from the event log.

    One walk over the live jobs sums both the slowdown shaping term and
    the late weight. A job's ideal duration (floored at ``1e-9``) is
    static, so it is kept in ``sim.memo(tick_reward)`` by slot: after a
    job's first tick its shaping term costs one dict hit.
    """
    slowdown = weights.slowdown > 0
    tardiness = weights.tardiness > 0
    shaping = 0.0
    late_weight = 0
    if slowdown or tardiness:
        ideals = sim.memo(tick_reward)
        base_speeds = None
        now = sim.now
        for job in list(sim.pending) + sim.running:
            if slowdown:
                ideal = ideals.get(job._slot)
                if ideal is None:
                    if base_speeds is None:
                        base_speeds = {
                            name: p.base_speed
                            for name, p in sim.cluster.platforms.items()}
                    ideal = ideals[job._slot] = max(
                        job_ideal_duration(job, base_speeds), 1e-9)
                shaping += job.weight / ideal
            if tardiness and now > job.deadline:
                late_weight += job.weight
    r = 0.0
    if slowdown:
        r -= weights.slowdown * shaping
    if weights.miss > 0 and newly_missed:
        r -= weights.miss * newly_missed_weight
    if tardiness:
        r -= weights.tardiness * late_weight
    if weights.utilization > 0:
        r += weights.utilization * utilization
    return r
