"""The concrete baseline schedulers (see package docstring for the roster)."""

from __future__ import annotations

from typing import Dict, Optional, Type, TYPE_CHECKING

import numpy as np

from repro.baselines.base import HeuristicScheduler
from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = [
    "FIFOScheduler", "SJFScheduler", "EDFScheduler", "LLFScheduler",
    "TetrisScheduler", "RandomScheduler", "GreedyElasticScheduler",
    "MigratingElasticScheduler",
    "ROSTER_CLASSES", "baseline_roster",
]


class FIFOScheduler(HeuristicScheduler):
    """First-in-first-out admission (arrival order)."""

    name = "fifo"

    def order_key(self, sim: "Simulation", job: Job) -> float:
        return float(job.arrival_time)


class SJFScheduler(HeuristicScheduler):
    """Shortest remaining work first."""

    name = "sjf"

    def order_key(self, sim: "Simulation", job: Job) -> float:
        return job.remaining_work


class EDFScheduler(HeuristicScheduler):
    """Earliest deadline first — the canonical time-critical heuristic."""

    name = "edf"

    def order_key(self, sim: "Simulation", job: Job) -> float:
        return job.deadline


class LLFScheduler(HeuristicScheduler):
    """Least laxity (slack) first: most urgent by achievable margin."""

    name = "llf"

    def order_key(self, sim: "Simulation", job: Job) -> float:
        best_platform = max(job.affinity, key=job.affinity.get)
        base = sim.cluster.platforms.get(best_platform)
        base_speed = base.base_speed if base is not None else 1.0
        return job.slack(sim.now, base_speed=base_speed)


class TetrisScheduler(HeuristicScheduler):
    """Packing-score admission in the spirit of Tetris (Grandl et al.).

    Scores each (job, platform) by the dot product of the job's demand
    (its minimum footprint) with the platform's free capacity, weighted by
    the job's effective rate there — preferring placements that both pack
    well and run fast. Jobs are admitted in descending score order.
    """

    name = "tetris"

    def schedule(self, sim: "Simulation") -> None:
        while sim.cluster.total_free():
            best: Optional[tuple] = None
            for job in sim.pending:
                for p in sim.cluster.platform_names:
                    if p not in job.affinity:
                        continue
                    free = sim.cluster.free_units(p)
                    if free < job.min_parallelism:
                        continue
                    rate = self.effective_rate(sim, job, p, job.min_parallelism)
                    score = rate * (free / sim.cluster.capacity(p))
                    if best is None or score > best[0]:
                        best = (score, job, p)
            if best is None:
                return
            _, job, platform = best
            k = self.choose_parallelism(sim, job, platform)
            if k is None:  # pragma: no cover - defensive; free>=min guaranteed
                return
            sim.cluster.allocate(job, platform, k, now=sim.now)
            sim.pending.remove(job)


class RandomScheduler(HeuristicScheduler):
    """Uniformly random admissible decisions — the sanity floor."""

    name = "random"

    def schedule(self, sim: "Simulation") -> None:
        if not sim.pending:
            return  # keep the RNG untouched on empty queues (kernel contract)
        jobs = list(sim.pending)
        self.rng.shuffle(jobs)
        for job in jobs:
            candidates = [
                p for p in sim.cluster.platform_names
                if p in job.affinity
                and sim.cluster.free_units(p) >= job.min_parallelism
            ]
            if not candidates:
                continue
            platform = str(self.rng.choice(candidates))
            free = sim.cluster.free_units(platform)
            k = int(self.rng.integers(job.min_parallelism,
                                      min(job.max_parallelism, free) + 1))
            sim.cluster.allocate(job, platform, k, now=sim.now)
            sim.pending.remove(job)


class GreedyElasticScheduler(HeuristicScheduler):
    """EDF admission plus a slack-driven elastic rebalancing pass.

    After admissions, repeatedly: (1) *grow* the running job with the
    least slack while it is behind its deadline and capacity exists;
    (2) *shrink* the running job with the largest positive slack when
    pending work is starved for units — the hand-crafted analogue of the
    learned elastic policy (the strongest non-DRL comparator in E2/E5).
    """

    name = "greedy-elastic"
    # The elastic pass may grow/shrink running jobs even with an empty
    # queue, so the kernel may only fast-forward fully idle stretches.
    quiescence = "idle"

    def order_key(self, sim: "Simulation", job: Job) -> float:
        return job.deadline

    def elastic_pass(self, sim: "Simulation") -> None:
        cluster = sim.cluster
        # Grow the most urgent jobs while they cannot meet their deadline
        # (a grow needs a free unit, so stop once none is left).
        for _ in range(cluster.total_capacity()):
            if not cluster.total_free():
                break
            candidates = [
                j for j in sim.running
                if cluster.can_grow(j, 1) and self._behind(sim, j)
            ]
            if not candidates:
                break
            job = min(candidates, key=lambda j: self._slack(sim, j))
            cluster.grow(job, 1, now=sim.now)
        # Shrink generously-provisioned jobs when pending jobs are starved.
        starving = any(
            all(
                cluster.free_units(p) < j.min_parallelism
                for p in cluster.platform_names
                if p in j.affinity
            )
            for j in sim.pending
        )
        if not starving:
            return
        for _ in range(cluster.total_capacity()):
            # The first running job of largest slack above 2 that stays
            # on time one unit down, as ``max`` would pick it.
            victim: Optional[Job] = None
            best = 2.0
            for j in sim.running:
                if not cluster.can_shrink(j, 1):
                    continue
                slack = self._slack(sim, j)
                if slack > best and not self._behind(sim, j, after_shrink=True):
                    victim, best = j, slack
            if victim is None:
                break
            cluster.shrink(victim, 1, now=sim.now)

    def _slack(self, sim: "Simulation", job: Job) -> float:
        alloc = sim.cluster.allocation_of(job)
        assert alloc is not None
        rate = self.effective_rate(sim, job, alloc.platform, alloc.parallelism)
        return (job.deadline - sim.now) - job.remaining_work / max(rate, 1e-9)

    def _behind(self, sim: "Simulation", job: Job, after_shrink: bool = False) -> bool:
        alloc = sim.cluster.allocation_of(job)
        assert alloc is not None
        k = alloc.parallelism - (1 if after_shrink else 0)
        if k < job.min_parallelism:
            return True
        rate = self.effective_rate(sim, job, alloc.platform, k)
        return (job.deadline - sim.now) < job.remaining_work / max(rate, 1e-9)


class MigratingElasticScheduler(GreedyElasticScheduler):
    """Greedy-elastic plus a migration pass for deadline-losing jobs.

    After the elastic pass: any running job that is behind its deadline
    at its current placement is moved to another platform when the move
    raises its effective rate enough to beat both the migration cost and
    a hysteresis margin (rate gain > ``gain_threshold``x). Exercises the
    :meth:`~repro.sim.Cluster.migrate` primitive.
    """

    name = "migrating-elastic"

    def __init__(self, platform_choice: str = "best", parallelism: str = "fit",
                 seed: int = 0, migration_cost: float = 1.0,
                 gain_threshold: float = 1.5) -> None:
        super().__init__(platform_choice, parallelism, seed)
        if migration_cost < 0:
            raise ValueError("migration_cost must be non-negative")
        if gain_threshold < 1.0:
            raise ValueError("gain_threshold must be >= 1")
        self.migration_cost = migration_cost
        self.gain_threshold = gain_threshold

    def elastic_pass(self, sim: "Simulation") -> None:
        super().elastic_pass(sim)
        for job in list(sim.running):
            if not self._behind(sim, job):
                continue
            alloc = sim.cluster.allocation_of(job)
            assert alloc is not None
            current_rate = self.effective_rate(sim, job, alloc.platform,
                                               alloc.parallelism)
            best: Optional[tuple] = None
            for p in sim.cluster.platform_names:
                if p == alloc.platform or p not in job.affinity:
                    continue
                k = min(job.max_parallelism, sim.cluster.free_units(p))
                if k < job.min_parallelism:
                    continue
                rate = self.effective_rate(sim, job, p, k)
                if rate > current_rate * self.gain_threshold and (
                        best is None or rate > best[0]):
                    best = (rate, p, k)
            if best is not None:
                _, platform, k = best
                sim.cluster.migrate(job, platform, k, now=sim.now,
                                    cost=self.migration_cost)


#: Scheduler name -> class of the comparison set, in roster order.
ROSTER_CLASSES: Dict[str, Type[HeuristicScheduler]] = {
    cls.name: cls
    for cls in (FIFOScheduler, SJFScheduler, EDFScheduler, LLFScheduler,
                TetrisScheduler, RandomScheduler, GreedyElasticScheduler)
}


def baseline_roster(platform_choice: str = "best", parallelism: str = "fit",
                    seed: int = 0) -> Dict[str, HeuristicScheduler]:
    """The full comparison set keyed by scheduler name."""
    return {name: cls(platform_choice, parallelism, seed)
            for name, cls in ROSTER_CLASSES.items()}
