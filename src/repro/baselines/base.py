"""Shared machinery of the heuristic schedulers."""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.sim.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["HeuristicScheduler"]


class HeuristicScheduler:
    """Template: order the queue, then admit greedily each tick.

    Subclasses override :meth:`order_key` (admission priority) and may
    override :meth:`elastic_pass` (post-admission grow/shrink, no-op by
    default — only elasticity-aware baselines use it).

    Parameters
    ----------
    platform_choice:
        ``"best"`` — highest effective rate among platforms with room
        (affinity-aware); ``"blind"`` — first platform with room in
        declaration order, ignoring affinities (E6's ablation).
    parallelism:
        ``"min"`` / ``"max"`` / ``"fit"`` — parallelism requested at
        admission: the job minimum, the job maximum (only if it fits), or
        the largest feasible value within the window.
    """

    name = "heuristic"

    # Event-kernel contract (see repro.sim.kernel): admission-only
    # heuristics are a no-op (and draw no randomness) whenever the
    # pending queue is empty, so the kernel may fast-forward such ticks.
    # Subclasses that act on *running* jobs (elastic passes) must weaken
    # this to "idle" (quiescent only when queue AND running set are empty).
    quiescence = "queue"

    def __init__(self, platform_choice: str = "best", parallelism: str = "fit",
                 seed: int = 0) -> None:
        if platform_choice not in ("best", "blind"):
            raise ValueError("platform_choice must be 'best' or 'blind'")
        if parallelism not in ("min", "max", "fit"):
            raise ValueError("parallelism must be 'min', 'max', or 'fit'")
        self.platform_choice = platform_choice
        self.parallelism = parallelism
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def cache_spec(self) -> dict:
        """Canonical parameterization for result-cache fingerprinting.

        Everything that determines scheduling decisions (class, declared
        options, the *initial* seed) and nothing that mutates while the
        scheduler runs: the live RNG stream position is excluded, so a
        used instance fingerprints the same as a fresh one.
        """
        spec = {k: v for k, v in vars(self).items() if k != "rng"}
        spec["class"] = type(self).__qualname__
        return spec

    # --- protocol -----------------------------------------------------------
    def schedule(self, sim: "Simulation") -> None:
        """Called once per tick before time advances.

        Every admission needs ``min_parallelism >= 1`` free units, so
        once the cluster has none the rest of the queue cannot start:
        the walk is skipped or cut short there, with the same decisions.
        """
        cluster = sim.cluster
        if cluster.total_free():
            for job in self.ordered_queue(sim):
                platform = self.choose_platform(sim, job)
                if platform is None:
                    continue
                k = self.choose_parallelism(sim, job, platform)
                if k is None:
                    continue
                cluster.allocate(job, platform, k, now=sim.now)
                sim.pending.remove(job)
                if not cluster.total_free():
                    break
        self.elastic_pass(sim)

    # --- hooks ------------------------------------------------------------------
    def order_key(self, sim: "Simulation", job: Job) -> float:
        """Admission priority (ascending). Default: FIFO by arrival."""
        return float(job.arrival_time)

    def elastic_pass(self, sim: "Simulation") -> None:
        """Optional post-admission elastic adjustment (default: none)."""

    # --- shared helpers --------------------------------------------------------
    def ordered_queue(self, sim: "Simulation") -> List[Job]:
        """Pending jobs in admission order (stable on ties by job id)."""
        return sorted(sim.pending, key=lambda j: (self.order_key(sim, j), j.job_id))

    def effective_rate(self, sim: "Simulation", job: Job, platform: str, k: int) -> float:
        """Progress per tick for ``job`` with ``k`` units of ``platform``."""
        base = sim.cluster.platforms[platform].base_speed
        return job.rate_on(platform, k, base)

    def choose_platform(self, sim: "Simulation", job: Job) -> Optional[str]:
        """Pick a platform with room for at least ``min_parallelism``."""
        min_par = job.min_parallelism
        candidates = [
            p for p in sim.cluster.platform_names
            if p in job.affinity and sim.cluster.free_units(p) >= min_par
        ]
        if not candidates:
            return None
        if self.platform_choice == "blind":
            return candidates[0]
        return max(
            candidates,
            key=lambda p: self.effective_rate(sim, job, p, min_par),
        )

    def choose_parallelism(self, sim: "Simulation", job: Job, platform: str) -> Optional[int]:
        """Pick the admission parallelism according to the configured mode."""
        free = sim.cluster.free_units(platform)
        if free < job.min_parallelism:
            return None
        if self.parallelism == "min":
            return job.min_parallelism
        if self.parallelism == "max":
            return job.max_parallelism if free >= job.max_parallelism else None
        return min(job.max_parallelism, free)
