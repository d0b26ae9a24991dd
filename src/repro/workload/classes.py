"""Job classes: the statistical families jobs are sampled from.

A :class:`JobClass` bundles the distributions that define one workload
family — service demand, elasticity range, scaling law, per-platform
affinity, and deadline tightness. The default mix models the scenario the
paper's title implies: time-critical analysis jobs (tight deadlines, some
accelerator-friendly) sharing a heterogeneous cluster with elastic
best-effort batch work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.sim.job import Job
from repro.sim.speedup import AmdahlSpeedup, SpeedupModel

__all__ = ["JobClass", "default_job_classes"]


@dataclass(frozen=True)
class JobClass:
    """Distributional description of one family of jobs.

    Parameters
    ----------
    name:
        Class label carried into :attr:`repro.sim.Job.job_class`.
    mix_weight:
        Relative sampling probability within a workload mix.
    work_lognorm:
        ``(mu, sigma)`` of the log of service demand (reference unit-ticks).
        Lognormal demand gives the heavy tail real traces exhibit.
    parallelism_range:
        Inclusive bounds ``(min_lo, max_hi)`` from which the per-job
        elasticity window is drawn: ``min ~ U{min_lo..}``, ``max ~ U{..max_hi}``.
    serial_fraction:
        Amdahl ``sigma`` for the class's speedup model.
    affinity:
        Platform name -> speed factor (absent platform = cannot run).
    tightness_range:
        Deadline tightness ``tau`` bounds; deadline = arrival +
        ``tau * ideal_duration`` with ``tau`` uniform in the range. Lower
        is tighter (more time-critical).
    weight:
        Reward weight of jobs in this class (time-critical > best-effort).
    rigid:
        Force ``min == max`` parallelism (used by the E5 rigid ablation).
    """

    name: str
    mix_weight: float
    work_lognorm: Tuple[float, float]
    parallelism_range: Tuple[int, int]
    serial_fraction: float
    affinity: Dict[str, float]
    tightness_range: Tuple[float, float] = (1.5, 3.0)
    weight: float = 1.0
    rigid: bool = False

    def __post_init__(self) -> None:
        if self.mix_weight <= 0:
            raise ValueError("mix_weight must be positive")
        lo, hi = self.parallelism_range
        if lo < 1 or hi < lo:
            raise ValueError("invalid parallelism_range")
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")
        t_lo, t_hi = self.tightness_range
        if t_lo <= 1.0 or t_hi < t_lo:
            raise ValueError("tightness bounds must satisfy 1 < lo <= hi")
        if not self.affinity:
            raise ValueError("class must run on at least one platform")

    def mean_work(self) -> float:
        """Expected service demand of the lognormal work distribution.

        libm's ``exp``, not numpy's, whose AVX-512 loop rounds
        differently: arrival rates must not depend on the host's SIMD.
        """
        mu, sigma = self.work_lognorm
        return math.exp(mu + 0.5 * sigma * sigma)

    def speedup_model(self) -> SpeedupModel:
        """Speedup law instance for this class."""
        return AmdahlSpeedup(self.serial_fraction)

    def sample_job(
        self,
        arrival_time: int,
        rng: np.random.Generator,
        base_speeds: Dict[str, float],
        tightness_scale: float = 1.0,
    ) -> Job:
        """Draw one job of this class arriving at ``arrival_time``.

        ``base_speeds`` maps platform -> base speed, needed to anchor the
        deadline to the job's best-case (ideal) duration.
        ``tightness_scale`` multiplies the sampled tightness — the dial
        experiment E4 sweeps.
        """
        mu, sigma = self.work_lognorm
        work = float(rng.lognormal(mu, sigma))
        work = max(work, 1.0)
        lo, hi = self.parallelism_range
        k_min = int(rng.integers(lo, hi + 1))
        k_max = int(rng.integers(k_min, hi + 1))
        if self.rigid:
            k_max = k_min
        model = self.speedup_model()
        best_rate = max(
            self.affinity[p] * base_speeds[p] * model.speedup(k_max)
            for p in self.affinity
            if p in base_speeds
        )
        ideal = work / best_rate
        t_lo, t_hi = self.tightness_range
        tau = float(rng.uniform(t_lo, t_hi)) * tightness_scale
        # Deadline must stay strictly after arrival even for tiny jobs.
        deadline = arrival_time + max(tau * ideal, 1.0 + 1e-6)
        return Job(
            arrival_time=arrival_time,
            work=work,
            deadline=deadline,
            min_parallelism=k_min,
            max_parallelism=k_max,
            speedup_model=model,
            affinity=dict(self.affinity),
            job_class=self.name,
            weight=self.weight,
        )


def default_job_classes(cpu: str = "cpu", gpu: str = "gpu") -> List[JobClass]:
    """The standard 4-class mix used across the experiment suite.

    * ``tc-cpu``  — time-critical, CPU-bound, moderately elastic
    * ``tc-gpu``  — time-critical, accelerator-friendly (4x on GPU)
    * ``batch``   — best-effort, highly elastic, loose deadlines
    * ``rigid-svc`` — small rigid service jobs (elasticity-incompatible)
    """
    return [
        JobClass(
            name="tc-cpu",
            mix_weight=0.35,
            work_lognorm=(2.2, 0.55),
            parallelism_range=(1, 6),
            serial_fraction=0.08,
            affinity={cpu: 1.0, gpu: 0.8},
            tightness_range=(1.3, 2.2),
            weight=2.0,
        ),
        JobClass(
            name="tc-gpu",
            mix_weight=0.25,
            work_lognorm=(2.5, 0.6),
            parallelism_range=(1, 4),
            serial_fraction=0.12,
            affinity={cpu: 0.5, gpu: 4.0},
            tightness_range=(1.3, 2.5),
            weight=2.0,
        ),
        JobClass(
            name="batch",
            mix_weight=0.30,
            work_lognorm=(3.0, 0.7),
            parallelism_range=(1, 8),
            serial_fraction=0.05,
            affinity={cpu: 1.0, gpu: 1.2},
            tightness_range=(2.5, 5.0),
            weight=1.0,
        ),
        JobClass(
            name="rigid-svc",
            mix_weight=0.10,
            work_lognorm=(1.6, 0.4),
            parallelism_range=(1, 2),
            serial_fraction=0.30,
            affinity={cpu: 1.0},
            tightness_range=(1.5, 3.0),
            weight=1.5,
            rigid=True,
        ),
    ]
