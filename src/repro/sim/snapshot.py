"""Canonical suspend/resume snapshots of a live :class:`Simulation`.

The online serving layer (:mod:`repro.serve`) must survive ``kill -9``:
a restarted process has to pick up the cluster mid-run and produce the
same final metrics, event log, and per-job floats as a run that was
never interrupted. Naive pickling cannot do this — adopted ``Job``
objects detach from the SoA tables on ``__getstate__`` and the tables'
running-set bookkeeping (``alloc_seq``, swap-remove order) is not
reconstructible from the jobs alone — so this module captures an
explicit, JSON-compatible description of everything observable:

* the static trace (via :func:`~repro.workload.traces.job_payload`)
  in slot order, plus each job's ``job_id`` (its slot) and runtime
  fields,
* the live queue structures (future/pending/completed/dropped) as
  ``job_id`` lists in order,
* the allocation ledger in allocation order (``Cluster._allocations``
  preserves it: insertion-ordered dict, re-inserted on re-allocate),
* per-platform offline unit counts,
* the full event log and utilization series,
* energy-meter accumulators and the fault injector's RNG state + stats.

Restore rebuilds a fresh ``Simulation`` and *replays* the allocations
through ``Cluster.allocate`` in recorded order, so ``alloc_seq`` —
which fixes completion order — matches the original exactly. Values
round-trip bit-for-bit through JSON (``repr``-based float emission;
Python's ``json`` handles ``Infinity`` MTBFs and arbitrary-precision
PCG64 state integers).

Only flat :class:`Simulation` runs are supported; DAG subclasses carry
stage-graph state this schema does not describe.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List

import numpy as np

from repro.sim.energy import EnergyMeter, PowerModel
from repro.sim.events import Event, EventKind
from repro.sim.faults import FaultInjector, FaultModel
from repro.sim.job import Job, JobState
from repro.sim.platform import Platform
from repro.sim.simulation import Simulation, SimulationConfig

__all__ = [
    "SNAPSHOT_FORMAT",
    "SIMULATION_SNAPSHOT_ATTRS",
    "SIMULATION_DERIVED_ATTRS",
    "KERNEL_SNAPSHOT_ATTRS",
    "KERNEL_DERIVED_ATTRS",
    "snapshot_simulation",
    "restore_simulation",
]

SNAPSHOT_FORMAT = "repro-sim-snapshot/1"

# --- declared snapshot surface (checked statically by lint rule SNAP001) ---
# Every attribute assigned in ``Simulation.__init__`` must appear in
# exactly one of the two sets below: captured by ``snapshot_simulation``
# or provably reconstructed by ``restore_simulation``. The linter fails
# the build when a new ``self.X`` shows up undeclared, so live state can
# never silently fall outside the restart contract. Keep these literal
# frozensets of strings — SNAP001 reads them from the AST.

#: Attributes captured (directly or as an encoded projection) in the
#: snapshot payload: ``_future``/``pending``/``completed``/``dropped``
#: as job-id lists, ``log`` as the event list, ``cluster`` via
#: platforms/allocations/offline, ``_all_jobs`` as full job entries.
SIMULATION_SNAPSHOT_ATTRS = frozenset({
    "config",
    "log",
    "cluster",
    "fault_injector",
    "energy_meter",
    "_future",
    "pending",
    "completed",
    "dropped",
    "now",
    "utilization_series",
    "_all_jobs",
})

#: Attributes rebuilt from the captured state on restore: ``tables`` is
#: the cluster's SoA tables re-adopted from the job list, ``_miss_bound``
#: is recomputed after ``deadline_dirty`` is raised, ``_next_arrival``
#: mirrors ``_future[0]``, and ``memos`` (caches) start empty.
SIMULATION_DERIVED_ATTRS = frozenset({
    "tables",
    "_miss_bound",
    "_next_arrival",
    "memos",
})

#: The kernel holds no durable state: a restarted server constructs a
#: fresh ``EventKernel`` around the restored simulation, so nothing in
#: its ``__init__`` is serialized.
KERNEL_SNAPSHOT_ATTRS = frozenset()

#: ``sim`` is the restored simulation itself; ``policy``/``_quiescence``
#: /``_wakeup_fn`` are re-derived from the policy object the caller
#: supplies; ``stats`` are per-process wall-clock diagnostics.
KERNEL_DERIVED_ATTRS = frozenset({
    "sim",
    "policy",
    "stats",
    "_quiescence",
    "_wakeup_fn",
})


def _job_entry(job: Job) -> dict:
    from repro.workload.traces import job_payload

    entry = job_payload(job)
    entry["affinity"] = dict(entry["affinity"])  # don't alias live state
    entry["job_id"] = job.job_id
    entry["runtime"] = {
        "state": job.state.value,
        "progress": job.progress,
        "platform": job.platform,
        "parallelism": job.parallelism,
        "start_time": job.start_time,
        "finish_time": job.finish_time,
        "miss_recorded": job.miss_recorded,
        "grow_count": job.grow_count,
        "shrink_count": job.shrink_count,
        "preempt_count": job.preempt_count,
        "migrate_count": job.migrate_count,
    }
    return entry


def snapshot_simulation(sim: Simulation) -> dict:
    """Capture a restorable description of ``sim`` at a tick boundary.

    Must be called between ticks (never from inside ``advance_tick`` or
    a policy callback) — exactly where the kernel's decision points sit.
    """
    if type(sim) is not Simulation:
        raise TypeError(
            f"snapshot supports flat Simulation runs, not {type(sim).__name__}")
    cluster = sim.cluster
    snap: dict = {
        "format": SNAPSHOT_FORMAT,
        "now": sim.now,
        "config": {
            "drop_on_miss": sim.config.drop_on_miss,
            "horizon": sim.config.horizon,
        },
        "platforms": [
            {"name": p.name, "capacity": p.capacity, "base_speed": p.base_speed}
            for p in cluster.platforms.values()
        ],
        "jobs": [_job_entry(job) for job in sim._all_jobs],
        "future": [job.job_id for job in sim._future],
        "pending": [job.job_id for job in sim.pending],
        "completed": [job.job_id for job in sim.completed],
        "dropped": [job.job_id for job in sim.dropped],
        "allocations": [
            [alloc.job.job_id, alloc.platform, alloc.parallelism]
            for alloc in cluster._allocations.values()
        ],
        "offline": {
            name: cluster.offline_units(name) for name in cluster.platform_names
        },
        "utilization": list(sim.utilization_series),
        "events": [
            [e.time, e.kind.value, e.job_id, e.platform, e.parallelism, e.detail]
            for e in sim.log.events
        ],
        "energy": None,
        "faults": None,
    }
    meter = sim.energy_meter
    if meter is not None:
        snap["energy"] = {
            "models": {
                name: {"idle_power": m.idle_power, "busy_power": m.busy_power}
                for name, m in meter.models.items()
            },
            "total_energy": meter.total_energy,
            "per_platform": dict(meter.per_platform),
            "power_series": list(meter.power_series),
        }
    injector = sim.fault_injector
    if injector is not None:
        snap["faults"] = {
            "models": {
                name: {"mtbf": m.mtbf, "mttr": m.mttr}
                for name, m in injector.models.items()
            },
            "rng_state": injector.rng.bit_generator.state,
            "stats": {
                "failures": injector.stats.failures,
                "repairs": injector.stats.repairs,
                "preemptions": injector.stats.preemptions,
                "downtime_unit_ticks": injector.stats.downtime_unit_ticks,
                "per_platform_failures": dict(
                    injector.stats.per_platform_failures),
            },
        }
    return snap


def _restore_meter(data) -> EnergyMeter:
    meter = EnergyMeter({
        name: PowerModel(float(m["idle_power"]), float(m["busy_power"]))
        for name, m in data["models"].items()
    })
    meter.total_energy = float(data["total_energy"])
    meter.per_platform = {k: float(v) for k, v in data["per_platform"].items()}
    meter.power_series = [float(v) for v in data["power_series"]]
    return meter


def _restore_injector(data) -> FaultInjector:
    models = {
        name: FaultModel(float(m["mtbf"]), float(m["mttr"]))
        for name, m in data["models"].items()
    }
    rng_state = data["rng_state"]
    bit_gen = getattr(np.random, rng_state["bit_generator"])()
    bit_gen.state = rng_state
    injector = FaultInjector(models, np.random.Generator(bit_gen))
    stats = data["stats"]
    injector.stats.failures = int(stats["failures"])
    injector.stats.repairs = int(stats["repairs"])
    injector.stats.preemptions = int(stats["preemptions"])
    injector.stats.downtime_unit_ticks = int(stats["downtime_unit_ticks"])
    injector.stats.per_platform_failures = {
        k: int(v) for k, v in stats["per_platform_failures"].items()
    }
    return injector


def restore_simulation(snap: dict) -> Simulation:
    """Rebuild a live :class:`Simulation` from :func:`snapshot_simulation`.

    The restored run continues bit-for-bit: same event log growth, same
    utilization/energy series, same per-job float progress, same
    completion order (allocations are replayed through the cluster in
    recorded order, so ``alloc_seq`` matches). Jobs are adopted in
    recorded order, so each takes its recorded ``job_id`` as its slot; a
    snapshot whose ids are not its slots in order is refused.
    """
    from repro.workload.traces import _speedup_from_dict

    if not isinstance(snap, dict) or snap.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(
            f"not a {SNAPSHOT_FORMAT} snapshot: "
            f"format={snap.get('format')!r}" if isinstance(snap, dict)
            else "snapshot must be a dict")
    platforms = [
        Platform(p["name"], int(p["capacity"]), float(p["base_speed"]))
        for p in snap["platforms"]
    ]
    config = SimulationConfig(
        drop_on_miss=bool(snap["config"]["drop_on_miss"]),
        horizon=snap["config"]["horizon"],
    )
    meter = _restore_meter(snap["energy"]) if snap["energy"] is not None else None
    injector = (_restore_injector(snap["faults"])
                if snap["faults"] is not None else None)
    sim = Simulation(platforms, [], config, injector, meter)

    jobs: List[Job] = []
    for slot, item in enumerate(snap["jobs"]):
        if item["job_id"] != slot:
            raise ValueError(f"snapshot job {slot} has job_id "
                             f"{item['job_id']!r}; ids must be slots in order")
        jobs.append(Job(
            item["arrival_time"], item["work"], item["deadline"],
            int(item["min_parallelism"]), int(item["max_parallelism"]),
            speedup_model=_speedup_from_dict(item["speedup"], "snapshot job"),
            affinity={k: float(v) for k, v in item["affinity"].items()},
            job_class=item["job_class"], weight=float(item["weight"]),
        ))
    # ``_all_jobs`` is the cluster's slot -> job list: extend it (never
    # rebind) in adoption order, so ``records()`` reads the columns in
    # lockstep with it.
    sim.tables.adopt_all(jobs)
    sim._all_jobs.extend(jobs)

    sim._future = deque(jobs[i] for i in snap["future"])
    sim._next_arrival = (
        sim._future[0].arrival_time if sim._future else math.inf)
    sim.pending = [jobs[i] for i in snap["pending"]]
    sim.completed = [jobs[i] for i in snap["completed"]]
    sim.dropped = [jobs[i] for i in snap["dropped"]]

    # Replay the ledger before taking units offline (every job is still
    # PENDING and every unit free, so ``allocate`` validates cleanly) and
    # before overwriting runtime fields (it expects PENDING claimants).
    for job_id, platform, k in snap["allocations"]:
        sim.cluster.allocate(jobs[job_id], platform, int(k), now=0)
    for name, n in snap["offline"].items():
        if n:
            # Bypass ``take_offline``'s free-unit validation and FAIL
            # logging: this reinstates bookkeeping, not a new failure.
            sim.tables.offline_delta(sim.cluster._pidx[name], int(n))

    pidx = sim.cluster._pidx
    tables = sim.tables
    for job, item in zip(jobs, snap["jobs"]):
        rt = item["runtime"]
        job.state = JobState(rt["state"])
        job.progress = rt["progress"]
        job.platform = rt["platform"]
        job.parallelism = rt["parallelism"]
        job.start_time = rt["start_time"]
        job.finish_time = rt["finish_time"]
        job.miss_recorded = rt["miss_recorded"]
        job.grow_count = rt["grow_count"]
        job.shrink_count = rt["shrink_count"]
        job.preempt_count = rt["preempt_count"]
        job.migrate_count = rt["migrate_count"]
        # ``release`` leaves finished jobs' platform column in place;
        # match it (allocate already set it for running jobs).
        tables.platform_idx[job._slot] = (
            pidx[rt["platform"]] if rt["platform"] is not None else -1)

    sim.now = snap["now"]
    sim.utilization_series = [float(u) for u in snap["utilization"]]
    # ``sim.log`` and ``cluster.log`` are the same object; replacing the
    # list drops the START events the ledger replay just logged.
    sim.log.events = [
        Event(t, EventKind(kind), job_id, platform, parallelism, detail)
        for t, kind, job_id, platform, parallelism, detail in snap["events"]
    ]
    # Force the miss scan to recompute its deadline lower bound.
    sim.tables.deadline_dirty = True
    return sim
