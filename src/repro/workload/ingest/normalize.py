"""Normalization: raw archive records -> the repo's :class:`Job` model.

The archives record *what happened* (submit time, runtime, processor
count); the simulator needs *what was demanded* (work units, elasticity
window, scaling law, platform eligibility, deadline, class). The mapping
is configured by one frozen :class:`IngestConfig` so that the whole
pipeline is a pure function

    ``normalize_records(records, config, platforms, seed) -> List[Job]``

— deterministic given its inputs, which is what makes imported traces
first-class citizens of the result cache: the config (plus the record
stream) *is* the fingerprint.

This module holds the config, the counts and the per-record stage math.
The stages run in one place, the two-pass normalizer
:func:`repro.workload.ingest.stream.stream_normalize`;
``normalize_records`` sorts records held in memory (stage 2) and hands
them to it.

Stages, in order (this order is part of the config contract — see
:class:`IngestConfig`):

1. **Filter** — drop unusable records (no runtime / width), optionally
   restrict to given SWF status codes.
2. **Order** — sort by ``(submit_time, job_id)`` with the remaining
   record fields as tie-breakers, so duplicate archive rows that share a
   submit second and a job id still normalize in one deterministic
   order regardless of how the archive file happened to order them.
3. **Window / subsample / cap** — keep a ``[start, end)`` second-window
   relative to the first submit, then a seeded ``subsample`` fraction
   (thinning preserves the arrival pattern's shape), then at most
   ``max_jobs`` of the surviving records.
4. **Quantize & rescale** — map submit seconds to integer ticks
   (``tick_seconds`` per tick) and optionally stretch/compress the
   arrival axis so the measured offered load hits ``target_load``.
5. **Work & elasticity** — the archive ran the job on ``p`` processors
   in ``run_time`` seconds; the job's demand in reference unit-ticks is
   therefore ``duration_ticks * speedup(p)``. ``p`` bounds the
   elasticity window (``max = p``, ``min = ceil(p * min_frac)``) and
   selects a fitted Amdahl serial fraction (wider jobs scale better —
   the standard observation the per-width interpolation encodes).
6. **Synthesis** — archives carry no deadlines or platform affinities.
   A seeded draw assigns each job time-critical or best-effort class,
   platform eligibility (an ``accel_fraction`` of jobs also run —
   faster — on the accelerator platform), and a slack-drawn deadline
   ``arrival + tau * ideal_duration`` exactly like the synthetic
   generator's classes, so imported and generated traces stress the
   same mechanisms.

Every stochastic draw (subsample keep/drop, class membership, platform
eligibility, deadline tightness) is **counter-based**: record index
``i``'s uniforms come from a Philox stream keyed on
``(seed, stream-tag, i // block)`` and read at offset ``i % block``, so
a draw is a pure function of ``(seed, index)`` — independent of how
many records are processed together. That is what lets the normalizer
hold only one chunk of records in memory and still emit the same jobs
at any chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.sim.speedup import AmdahlSpeedup
from repro.workload.ingest.records import RawJobRecord

__all__ = ["IngestConfig", "IngestStats", "normalize_records",
           "measured_load", "count_clamps", "TC_CLASS", "BE_CLASS"]

#: Class labels carried into ``Job.job_class`` by deadline synthesis.
TC_CLASS = "tc-trace"
BE_CLASS = "be-trace"

#: Floors applied in stage 5 (counted in :class:`IngestStats`, never silent).
DURATION_FLOOR_TICKS = 1e-9
WORK_FLOOR = 1.0

# Counter-based uniform streams: draws for item index ``i`` live in block
# ``i // _UNIFORM_BLOCK`` of a Philox generator keyed on
# ``(seed, stream-tag, block)``, so the value at an index never depends
# on batch boundaries — the property the streaming path relies on.
_UNIFORM_BLOCK = 2048
_SUBSAMPLE_STREAM = 1
_SYNTHESIS_STREAM = 2
_SYNTH_DRAWS = 4          # is_tc, on_accel, tc_tightness, be_tightness
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class IngestConfig:
    """Everything that parameterizes record -> Job normalization.

    The config is frozen and fully structural, so it can be part of a
    persistent cache fingerprint; ``seed`` drives every stochastic
    synthesis step (class assignment, affinity draw, deadline
    tightness). Subsampling and the target-load rescale always draw
    from ``config.seed`` — not a per-trace override — so the selected
    record set and time axis are properties of the config.

    **Stage order contract.** Selection applies, in this order:
    usability/status *filter*, deterministic *ordering* (submit time,
    job id, then the remaining fields as tie-breakers), the second
    *window* relative to the first usable submit, the seeded
    *subsample* thinning, and finally the *max_jobs* cap. ``max_jobs``
    therefore caps the records that *survived* windowing and
    subsampling — it is a hard output-size bound, not a pre-thinning
    prefix — and ``window`` membership is decided before any record is
    thinned away.
    """

    # --- time ----------------------------------------------------------
    tick_seconds: float = 60.0          # archive seconds per simulator tick
    window: Optional[Tuple[float, float]] = None   # [start, end) seconds
    max_jobs: Optional[int] = None
    subsample: float = 1.0              # keep fraction in (0, 1]
    target_load: Optional[float] = None  # rescale arrivals to this load

    # --- elasticity / scaling -----------------------------------------
    max_parallelism_cap: int = 16       # clip archive widths to the model
    min_parallelism_frac: float = 0.25  # min = ceil(frac * max)
    sigma_range: Tuple[float, float] = (0.03, 0.30)  # Amdahl fit endpoints

    # --- class / deadline / affinity synthesis ------------------------
    time_critical_fraction: float = 0.4
    tc_tightness: Tuple[float, float] = (1.3, 2.5)
    be_tightness: Tuple[float, float] = (2.5, 5.0)
    tc_weight: float = 2.0
    be_weight: float = 1.0
    accel_fraction: float = 0.25        # share of jobs eligible for accel
    accel_affinity: float = 4.0         # their speed factor there
    accel_cpu_penalty: float = 0.5      # accel-friendly jobs' CPU factor

    # --- filtering -----------------------------------------------------
    include_statuses: Optional[Tuple[int, ...]] = None  # None = keep all
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        if self.window is not None:
            lo, hi = self.window
            if hi <= lo:
                raise ValueError("window must satisfy start < end")
        if self.target_load is not None and self.target_load <= 0:
            raise ValueError("target_load must be positive")
        if self.max_parallelism_cap < 1:
            raise ValueError("max_parallelism_cap must be >= 1")
        if not 0.0 < self.min_parallelism_frac <= 1.0:
            raise ValueError("min_parallelism_frac must be in (0, 1]")
        lo, hi = self.sigma_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("sigma_range must satisfy 0 <= lo <= hi <= 1")
        if not 0.0 <= self.time_critical_fraction <= 1.0:
            raise ValueError("time_critical_fraction must be in [0, 1]")
        for name, rng_ in (("tc_tightness", self.tc_tightness),
                           ("be_tightness", self.be_tightness)):
            t_lo, t_hi = rng_
            if t_lo <= 1.0 or t_hi < t_lo:
                raise ValueError(f"{name} must satisfy 1 < lo <= hi")
        if not 0.0 <= self.accel_fraction <= 1.0:
            raise ValueError("accel_fraction must be in [0, 1]")
        if self.accel_affinity <= 0 or self.accel_cpu_penalty <= 0:
            raise ValueError("affinity factors must be positive")


@dataclass
class IngestStats:
    """What selection and clamping did to one record stream.

    Filled by the normalizer when passed as the ``stats`` argument —
    the drops and floors, made countable. ``n_records``
    counts every record offered to selection; the ``n_*_out`` fields
    partition the drops by stage; ``n_clamped_*`` count *selected*
    records whose duration or work hit the normalization floors
    (:data:`DURATION_FLOOR_TICKS`, :data:`WORK_FLOOR`).
    """

    n_records: int = 0
    n_unusable: int = 0
    n_status_filtered: int = 0
    n_windowed_out: int = 0
    n_subsampled_out: int = 0
    n_over_cap: int = 0
    n_selected: int = 0
    n_clamped_duration: int = 0
    n_clamped_work: int = 0

    def as_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)


# --- counter-based uniform draws -----------------------------------------

def _uniform_block(seed: int, stream: int, block: int,
                   width: int) -> np.ndarray:
    """One ``(_UNIFORM_BLOCK, width)`` block of the counter-based stream."""
    ss = np.random.SeedSequence((int(seed) & _SEED_MASK, stream, block))
    gen = np.random.Generator(np.random.Philox(ss))
    return gen.random((_UNIFORM_BLOCK, width))


def _indexed_uniforms(seed: int, stream: int, start: int, n: int,
                      width: int) -> np.ndarray:
    """Uniform draws for item indices ``[start, start + n)``.

    Row ``j`` depends only on ``(seed, stream, start + j)``, never on
    ``start`` or ``n`` themselves — one call per chunk reads the same
    numbers at any chunk size.
    """
    out = np.empty((n, width))
    pos = 0
    block = start // _UNIFORM_BLOCK
    while pos < n:
        values = _uniform_block(seed, stream, block, width)
        lo = (start + pos) - block * _UNIFORM_BLOCK
        take = min(_UNIFORM_BLOCK - lo, n - pos)
        out[pos:pos + take] = values[lo:lo + take]
        pos += take
        block += 1
    return out


def _synthesis_arrays(seed: int, start: int, n: int, config: IngestConfig,
                      has_accel: bool):
    """Stage-6 draws for selected indices ``[start, start + n)``."""
    u = _indexed_uniforms(seed, _SYNTHESIS_STREAM, start, n, _SYNTH_DRAWS)
    is_tc = u[:, 0] < config.time_critical_fraction
    on_accel = (u[:, 1] < config.accel_fraction) if has_accel \
        else np.zeros(n, dtype=bool)
    tc_lo, tc_hi = config.tc_tightness
    be_lo, be_hi = config.be_tightness
    tc_tau = tc_lo + (tc_hi - tc_lo) * u[:, 2]
    be_tau = be_lo + (be_hi - be_lo) * u[:, 3]
    return is_tc, on_accel, tc_tau, be_tau


# --- deterministic record ordering ---------------------------------------

def _record_order(r: RawJobRecord):
    """Total order on records: submit time, job id, then every remaining
    field as tie-breaker, so duplicate archive rows with equal
    ``(submit_time, job_id)`` still sort deterministically regardless of
    input order."""
    return (r.submit_time, r.job_id, r.run_time, r.processors,
            r.requested_processors, r.requested_time, r.wait_time,
            r.status, r.user, r.group)


def _fitted_sigma(width: int, config: IngestConfig) -> float:
    """Amdahl serial fraction fitted from the archive's processor count.

    Jobs the archive ran wide demonstrably scale, so they get a small
    serial fraction; single-processor jobs get the large endpoint. The
    interpolation is logarithmic in width (doubling the width halves the
    remaining serial share), deterministic — no RNG.
    """
    lo, hi = config.sigma_range
    cap = max(2, config.max_parallelism_cap)
    frac = min(1.0, math.log2(max(1, width)) / math.log2(cap))
    return hi - (hi - lo) * frac


def _demand_model(record: RawJobRecord, config: IngestConfig):
    """Stage-5 quantities for one selected record.

    Returns ``(width, speedup model, duration ticks, work,
    duration_clamped, work_clamped)`` — the per-record demand math the
    job builder, the load probe and :func:`count_clamps` share.
    """
    width = min(max(1, record.width()), config.max_parallelism_cap)
    model = AmdahlSpeedup(round(_fitted_sigma(width, config), 6))
    raw_duration = record.run_time / config.tick_seconds
    duration = max(raw_duration, DURATION_FLOOR_TICKS)
    raw_work = duration * model.speedup(width)
    work = max(WORK_FLOOR, raw_work)
    return (width, model, duration, work,
            raw_duration < DURATION_FLOOR_TICKS, raw_work < WORK_FLOOR)


def _job_demand(work: float, affinity: dict,
                platforms: Sequence[Platform], job_id="?") -> float:
    """One job's demand in capacity-weighted reference ticks."""
    total_cap = 0
    weighted = 0.0
    for p in platforms:
        if p.name in affinity:
            total_cap += p.capacity
            weighted += affinity[p.name] * p.base_speed * p.capacity
    if total_cap == 0:
        raise ValueError(
            f"job {job_id} runs on no provided platform "
            f"(affinity {sorted(affinity)})")
    return work / (weighted / total_cap)


def measured_load(jobs: Sequence[Job], platforms: Sequence[Platform]) -> float:
    """Offered load of a concrete job list on ``platforms``.

    Mirrors :func:`repro.workload.generator.offered_load` but measures a
    realized trace instead of a statistical mix: per-job demand is its
    work divided by the capacity-weighted mean unit service rate over
    the platforms it can run on, summed and divided by cluster capacity
    times the arrival span.
    """
    if not jobs:
        return 0.0
    capacity = sum(p.capacity for p in platforms)
    span = max(j.arrival_time for j in jobs) - min(j.arrival_time for j in jobs)
    span = max(1, span)
    demand = 0.0
    for job in jobs:
        demand += _job_demand(job.work, job.affinity, platforms, job.job_id)
    return demand / (capacity * span)


def count_clamps(records: Iterable[RawJobRecord],
                 config: IngestConfig) -> Tuple[int, int]:
    """How many usable records would hit the duration / work floors.

    A selection-free scan (no platforms needed) for ``trace stats``:
    reports the records whose ``run_time`` is so small that
    normalization at ``config.tick_seconds`` would silently floor their
    duration (``< 1e-9`` ticks) or their work (``< 1.0`` unit-ticks).
    """
    n_duration = n_work = 0
    for r in records:
        if not r.usable():
            continue
        _, _, _, _, clamped_d, clamped_w = _demand_model(r, config)
        n_duration += clamped_d
        n_work += clamped_w
    return n_duration, n_work


def normalize_records(
    records: Iterable[RawJobRecord],
    config: IngestConfig,
    platforms: Sequence[Platform],
    seed: Optional[int] = None,
    stats: Optional[IngestStats] = None,
) -> List[Job]:
    """Map raw archive records, in any order, into simulator jobs.

    ``seed`` overrides ``config.seed`` — the trace-backed scenarios use
    this to draw *paired* trace variants (same arrivals and demands,
    fresh class/deadline synthesis) from one archive, exactly as the
    synthetic generator draws paired traces from one workload config.

    ``platforms`` anchors deadline synthesis (best-case durations need
    base speeds) and, when ``config.target_load`` is set, the load
    rescaling. The first platform is the primary (CPU-like) pool every
    job may run on; the second, if present, is the accelerator pool an
    ``accel_fraction`` of jobs also run on.

    ``stats``, when given, is filled with the selection / clamp counts
    (:class:`IngestStats`).

    This is :func:`repro.workload.ingest.stream.stream_normalize` over
    the records held in memory: the records that pass the
    usability/status filter are sorted by the record order (stage 2),
    the others follow unsorted (a NaN in their keys would scramble the
    sort; the stream only counts them). Archives too large to hold go
    to ``stream_normalize`` directly.
    """
    from repro.workload.ingest.stream import stream_normalize

    allowed = set(config.include_statuses) \
        if config.include_statuses is not None else None
    kept: List[RawJobRecord] = []
    rest: List[RawJobRecord] = []
    for r in records:
        if r.usable() and (allowed is None or r.status in allowed):
            kept.append(r)
        else:
            rest.append(r)
    ordered = sorted(kept, key=_record_order) + rest
    return list(stream_normalize(lambda: ordered, config, platforms,
                                 seed=seed, stats=stats))


def _affinity_for(on_accel, primary: Platform, accel: Optional[Platform],
                  config: IngestConfig) -> dict:
    """Stage-6 platform-eligibility map for one job (shared by the job
    builder and the streaming load probe — one copy of this logic)."""
    if accel is not None and on_accel:
        return {primary.name: config.accel_cpu_penalty,
                accel.name: config.accel_affinity}
    return {primary.name: 1.0}


def _emit_job(arrival_tick, width, model, work, is_tc, on_accel,
              tc_tau, be_tau, primary: Platform, accel: Optional[Platform],
              base_speeds, config: IngestConfig) -> Job:
    """Stage-6 job construction for one selected record."""
    k_max = width
    k_min = max(1, int(math.ceil(k_max * config.min_parallelism_frac)))
    affinity = _affinity_for(on_accel, primary, accel, config)
    best_rate = max(affinity[p] * base_speeds[p] * model.speedup(k_max)
                    for p in affinity)
    ideal = work / best_rate
    tau = float(tc_tau if is_tc else be_tau)
    arrival = max(0, int(arrival_tick))
    return Job(
        arrival_time=arrival,
        work=float(work),
        deadline=arrival + max(tau * ideal, 1.0 + 1e-6),
        min_parallelism=k_min,
        max_parallelism=k_max,
        speedup_model=model,
        affinity=affinity,
        job_class=TC_CLASS if is_tc else BE_CLASS,
        weight=config.tc_weight if is_tc else config.be_weight,
    )

