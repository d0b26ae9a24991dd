"""Knob-vector -> runnable scenario: the fuzzer's phenotype mapping.

:class:`FuzzScenario` is an ordinary
:class:`~repro.harness.scenario.Scenario` subclass whose extra fields
are the decoded fuzz knobs that cannot be folded into the base fields:
the arrival-process family and its shape parameters, and the fault
rate. It is fully structural (dataclass fields only), so the
persistent result cache, the pickling process pool, and the scenario
fingerprint all work unchanged — a candidate's archive name
``fuzz/<fingerprint12>`` is a digest of exactly the fields that
determine its evaluation results.

Evaluation goes through :meth:`FuzzScenario.evaluate_segment`, the same
hook :class:`~repro.harness.library.TraceWindowScenario` uses, so
:func:`~repro.harness.parallel.run_cells` picks up the fault injector
without any change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.harness.scenario import Scenario
from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workload.classes import default_job_classes
from repro.workload.generator import (
    WorkloadConfig,
    arrival_rate_for_load,
    generate_trace,
)

__all__ = ["FuzzScenario", "scenario_from_knobs"]

#: Offset mixed into ``trace_seed`` for the fault stream, so faults are
#: paired across schedulers per trace (same convention as
#: :func:`repro.core.training.evaluate_scheduler_runs`' default) without
#: colliding with the trace RNG seed itself.
_FAULT_SEED_BASE = 90001

#: Time-critical classes of the default mix (reweighted by ``tc_share``).
_TC_CLASSES = ("tc-cpu", "tc-gpu")

#: Mean time to repair for injected faults, in ticks. Fixed: the fuzz
#: knob dials failure *frequency*; repair time is not searched.
_FAULT_MTTR = 10.0


@dataclass
class FuzzScenario(Scenario):
    """A fuzz candidate: synthetic scenario + arrival/fault knobs.

    The base ``workload`` and ``load`` fields carry the class-mix,
    width, and tightness knobs (already applied by
    :func:`scenario_from_knobs`); the fields below carry the knobs that
    act at trace-sampling or evaluation time.
    """

    arrival: str = "poisson"
    burstiness: float = 0.5
    switch_prob: float = 0.1
    fault_rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.arrival not in ("poisson", "bursty", "diurnal"):
            raise ValueError(f"unknown arrival family {self.arrival!r}")
        if not 0.0 <= self.burstiness < 1.0:
            raise ValueError("burstiness must be in [0, 1)")
        if self.fault_rate < 0.0:
            raise ValueError("fault_rate must be non-negative")

    def arrival_process(self) -> ArrivalProcess:
        """The knob-selected arrival process, anchored to ``load``.

        The mean rate always equals the Poisson rate that realizes the
        ``load`` knob, so the arrival-family knob changes *shape*
        (burst structure, diurnal cycle) at a held offered load rather
        than smuggling in a second load dial.
        """
        rate = arrival_rate_for_load(self.load, self.workload, self.platforms)
        if self.arrival == "bursty":
            return BurstyArrivals(rate_low=rate * (1.0 - self.burstiness),
                                  rate_high=rate * (1.0 + self.burstiness),
                                  switch_prob=self.switch_prob)
        if self.arrival == "diurnal":
            return DiurnalArrivals(base_rate=rate, amplitude=self.burstiness,
                                   period=max(8, self.workload.horizon // 2))
        return PoissonArrivals(rate)

    def trace(self, seed: int) -> List[Job]:
        rng = np.random.default_rng(seed)
        return generate_trace(self.workload, self.platforms, rng,
                              arrivals=self.arrival_process())

    def evaluate_segment(self, policy, trace_seed: int,
                         trace: Optional[List[Job]] = None,
                         max_ticks: Optional[int] = None):
        """One trace's :class:`~repro.sim.metrics.MetricsReport`.

        The ``run_cells`` segment hook: evaluates ``trace`` (a batch's
        shared template for ``trace_seed``, only cloned; ``None`` builds
        it here) for ``max_ticks`` (the cell's budget; ``None``: this
        scenario's own) with the fault injector attached when
        ``fault_rate > 0``, fault seed paired by trace seed so every
        scheduler faces the same failures on the same trace.
        """
        from repro.core.training import evaluate_scheduler_runs
        from repro.sim.faults import FaultModel

        fault_models = None
        if self.fault_rate > 0.0:
            fault_models = {p.name: FaultModel(mtbf=1.0 / self.fault_rate,
                                               mttr=_FAULT_MTTR)
                            for p in self.platforms}
        if trace is None:
            trace = self.trace(trace_seed)
        return evaluate_scheduler_runs(
            policy, self.platforms, [trace],
            max_ticks=self.max_ticks if max_ticks is None else max_ticks,
            fault_models=fault_models,
            fault_seed=_FAULT_SEED_BASE + trace_seed,
            engine=self.engine)[0].metrics()


def _mix_classes(tc_share: float, width_scale: float):
    """The default 4-class mix, reweighted and width-scaled by knobs."""
    base = default_job_classes()
    tc_total = sum(c.mix_weight for c in base if c.name in _TC_CLASSES)
    be_total = sum(c.mix_weight for c in base if c.name not in _TC_CLASSES)
    out = []
    for cls in base:
        share, total = ((tc_share, tc_total) if cls.name in _TC_CLASSES
                        else (1.0 - tc_share, be_total))
        lo, hi = cls.parallelism_range
        new_hi = max(lo, int(round(hi * width_scale)))
        out.append(replace(cls,
                           mix_weight=round(share * cls.mix_weight / total, 6),
                           parallelism_range=(lo, new_hi)))
    return out


def scenario_from_knobs(
    knobs: Mapping[str, object],
    horizon: int = 60,
    max_ticks: int = 400,
    cpu_capacity: int = 24,
    gpu_capacity: int = 8,
    core: Optional[object] = None,
) -> FuzzScenario:
    """Build the :class:`FuzzScenario` a decoded knob dict describes.

    ``knobs`` is :meth:`ScenarioSpace.decode` output (the keys of
    :func:`~repro.workload.fuzz.space.default_space`). The mapping is
    pure: the same knob dict and build parameters always produce a
    scenario with the same fingerprint, which is what makes archive
    names stable.
    """
    from repro.core.config import CoreConfig

    k: Dict[str, object] = dict(knobs)
    platforms = [Platform("cpu", cpu_capacity, 1.0),
                 Platform("gpu", gpu_capacity, 1.0)]
    workload = WorkloadConfig(
        classes=_mix_classes(float(k["tc_share"]), float(k["width_scale"])),
        horizon=horizon,
        tightness_scale=float(k["tightness"]),
    )
    return FuzzScenario(
        platforms=platforms,
        workload=workload,
        load=float(k["load"]),
        core=core if core is not None else CoreConfig(),
        max_ticks=max_ticks,
        arrival=str(k["arrival"]),
        burstiness=float(k["burstiness"]),
        switch_prob=float(k["switch_prob"]),
        fault_rate=float(k["fault_rate"]),
    )
