"""Workload substrate: arrival processes, job classes, synthetic traces.

The paper's evaluation workloads (production time-critical traces) are not
available offline; this package provides the documented substitution — a
controllable synthetic generator with Poisson and bursty (Markov-modulated)
arrivals, heavy-tailed service demands, per-class platform affinities, and
a deadline-tightness dial. Real cluster archives enter through
:mod:`repro.workload.ingest`.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.workload.classes import JobClass, default_job_classes
from repro.workload.generator import (
    WorkloadConfig,
    arrival_rate_for_load,
    generate_trace,
    offered_load,
)
from repro.workload.traces import (
    jobs_from_payload,
    load_trace,
    save_trace,
    trace_payload,
)
from repro.workload import ingest

__all__ = [
    "ArrivalProcess", "PoissonArrivals", "BurstyArrivals",
    "DiurnalArrivals", "DeterministicArrivals",
    "JobClass", "default_job_classes",
    "WorkloadConfig", "generate_trace", "offered_load", "arrival_rate_for_load",
    "save_trace", "load_trace", "trace_payload", "jobs_from_payload",
    "ingest",
]
