"""Discrete-time heterogeneous cluster simulator.

This package is the evaluation substrate of the reproduction: a malleable
(elastic) job model with deadlines, a cluster of heterogeneous platform
types, and the bookkeeping (event log, metrics) every experiment needs.

Time advances in unit ticks. A running job allocated ``k`` units on
platform ``p`` gains ``affinity[p] * speedup(k)`` units of progress per
tick; it completes when accumulated progress reaches its ``work``. A job
*misses* its deadline when its completion time exceeds ``deadline`` (or
when the deadline passes while it is still queued/running — the miss is
recorded once, at the first tick it becomes late).
"""

from repro.sim.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    PowerLawSpeedup,
    SpeedupModel,
)
from repro.sim.job import Job, JobState
from repro.sim.platform import Platform
from repro.sim.cluster import Allocation, Cluster
from repro.sim.events import Event, EventKind, EventLog
from repro.sim.metrics import JobRecord, MetricsReport, compute_metrics
from repro.sim.faults import FaultInjector, FaultModel, FaultStats
from repro.sim.energy import EnergyMeter, PowerModel
from repro.sim.simulation import Simulation, SimulationConfig
from repro.sim.kernel import EventKernel, KernelStats, WakeupKind
from repro.sim.snapshot import restore_simulation, snapshot_simulation
from repro.sim.soa import StateTables, pin_cutoff, use_vector

__all__ = [
    "EventKernel", "KernelStats", "WakeupKind",
    "StateTables", "use_vector", "pin_cutoff",
    "SpeedupModel", "LinearSpeedup", "AmdahlSpeedup", "PowerLawSpeedup",
    "Job", "JobState", "Platform", "Cluster", "Allocation",
    "Event", "EventKind", "EventLog",
    "JobRecord", "MetricsReport", "compute_metrics",
    "FaultInjector", "FaultModel", "FaultStats",
    "EnergyMeter", "PowerModel",
    "Simulation", "SimulationConfig",
    "snapshot_simulation", "restore_simulation",
]
