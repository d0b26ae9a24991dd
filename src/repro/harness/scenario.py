"""Scenario: the reusable bundle of cluster + workload every experiment uses."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import CoreConfig
from repro.core.scheduler_env import EpisodeFactory, SchedulerEnv
from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.workload.classes import JobClass, default_job_classes
from repro.workload.generator import WorkloadConfig, generate_trace

__all__ = ["Scenario", "standard_scenario"]


@dataclass
class Scenario:
    """A fully-specified experimental setting.

    Bundles the heterogeneous platforms, the workload configuration, the
    target offered load, and the core-MDP sizing — everything needed to
    create paired traces and scheduler environments from seeds alone.
    """

    platforms: List[Platform]
    workload: WorkloadConfig
    load: float
    core: CoreConfig = field(default_factory=CoreConfig)
    max_ticks: int = 500
    engine: str = "tick"

    def __post_init__(self) -> None:
        if self.engine not in ("tick", "event"):
            raise ValueError(f"engine must be 'tick' or 'event', got {self.engine!r}")

    def with_load(self, load: float) -> "Scenario":
        """Same scenario at a different offered load."""
        return replace(self, load=load)

    def with_engine(self, engine: str) -> "Scenario":
        """Same scenario driven by a different simulation engine.

        ``"event"`` selects the event-driven kernel
        (:mod:`repro.sim.kernel`). Evaluation sweeps are bit-identical
        across engines. For RL *training* the event engine macro-steps
        fully idle stretches: episode returns and metrics are unchanged
        (idle ticks are worth exactly zero reward), but a stochastic
        policy sees fewer forced-noop decisions, so its RNG stream — and
        hence the exact trained weights for a given seed — differs from
        the tick engine.
        """
        return replace(self, engine=engine)

    def with_tightness(self, scale: float) -> "Scenario":
        """Same scenario with deadlines scaled by ``scale`` (E4's dial)."""
        wl = replace(self.workload, tightness_scale=scale)
        return replace(self, workload=wl)

    def with_core(self, core: CoreConfig) -> "Scenario":
        """Same scenario with a different MDP configuration."""
        return replace(self, core=core)

    def fingerprint(self) -> str:
        """Structural digest of the full scenario spec.

        Two scenarios share a fingerprint iff every field that influences
        an evaluation result (platforms, workload classes, load, MDP
        config, tick budget, engine) is identical — the scenario part of
        the persistent result-cache key (:mod:`repro.harness.cache`).
        """
        from repro.harness.cache import fingerprint

        return fingerprint(self)

    def trace(self, seed: int) -> List[Job]:
        """One reproducible trace for this scenario."""
        rng = np.random.default_rng(seed)
        return generate_trace(self.workload, self.platforms, rng, load=self.load)

    def traces(self, n: int, base_seed: int = 1000) -> List[List[Job]]:
        """``n`` paired traces (same seeds across schedulers)."""
        return [self.trace(base_seed + i) for i in range(n)]

    def train_env(self, seed: int = 0, work_scale: float = 25.0) -> SchedulerEnv:
        """A sampling-mode environment for policy training."""
        def factory(rng: np.random.Generator) -> List[Job]:
            return generate_trace(self.workload, self.platforms, rng, load=self.load)

        return SchedulerEnv(
            EpisodeFactory(self.platforms, trace_factory=factory),
            config=self.core,
            max_ticks=self.max_ticks,
            seed=seed,
            work_scale=work_scale,
            engine=self.engine,
        )

    def eval_env(self, traces: Sequence[List[Job]], seed: int = 0,
                 work_scale: float = 25.0) -> SchedulerEnv:
        """A replay-mode environment cycling over fixed traces."""
        return SchedulerEnv(
            EpisodeFactory(self.platforms, fixed_traces=list(traces)),
            config=self.core,
            max_ticks=self.max_ticks,
            seed=seed,
            work_scale=work_scale,
            engine=self.engine,
        )


def standard_scenario(
    load: float = 0.7,
    horizon: int = 60,
    tightness_scale: float = 1.0,
    cpu_capacity: int = 24,
    gpu_capacity: int = 8,
    classes: Optional[Sequence[JobClass]] = None,
    core: Optional[CoreConfig] = None,
    max_ticks: int = 500,
    engine: str = "tick",
) -> Scenario:
    """The canonical two-platform scenario of the experiment suite.

    CPU-heavy pool plus a scarce, fast accelerator pool; the default
    4-class workload mix (see :func:`repro.workload.default_job_classes`).
    """
    platforms = [Platform("cpu", cpu_capacity, 1.0), Platform("gpu", gpu_capacity, 1.0)]
    workload = WorkloadConfig(
        classes=list(classes) if classes is not None else default_job_classes(),
        horizon=horizon,
        tightness_scale=tightness_scale,
    )
    return Scenario(
        platforms=platforms,
        workload=workload,
        load=load,
        core=core if core is not None else CoreConfig(),
        max_ticks=max_ticks,
        engine=engine,
    )
