"""The normalizer: two passes over a sorted record stream.

Every archive trace becomes jobs here. A multi-million-job archive (a
Parallel Workloads Archive SWF log, a Google/Alibaba columnar table) is
normalized in bounded memory by re-streaming its records, and
:func:`~repro.workload.ingest.normalize.normalize_records` is this
module over an in-memory list it has sorted first.

* **Pass 1** streams the raw records once and accumulates what needs
  the whole stream: the selection counts, the clamp counts, and — when
  ``target_load`` is set — the offered-load probe (per-record demand
  summed in selection order, arrival-tick span), the value
  :func:`~repro.workload.ingest.normalize.measured_load` reports for the
  unscaled jobs. It is skipped when neither is asked for.
* **Pass 2** re-streams the records, re-derives the same selection
  decisions, and emits :class:`~repro.sim.job.Job` objects chunk by
  chunk.

The output does not depend on the chunk size, because of two invariants
of :mod:`~repro.workload.ingest.normalize`:

1. every stochastic draw is *counter-based* — a pure function of
   ``(seed, stream, index)`` — so a chunk reads the same numbers as the
   whole trace would;
2. quantized arrival ticks are monotone in submit time, so jobs emitted
   in submit order are already in arrival order.

The record stream must be sorted by the normalizer's deterministic
record order (submit time, job id, then field tie-breakers) — true of
SWF logs and of time-ordered columnar dumps. An out-of-order stream
raises :class:`UnsortedStreamError` naming the offending record; use
``normalize_records`` (which sorts in memory) for such archives.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.workload.ingest.columnar import ColumnarSpec, read_columnar
from repro.workload.ingest.normalize import (
    _UNIFORM_BLOCK,
    _SUBSAMPLE_STREAM,
    IngestConfig,
    IngestStats,
    _affinity_for,
    _demand_model,
    _emit_job,
    _job_demand,
    _record_order,
    _synthesis_arrays,
    _uniform_block,
)
from repro.workload.ingest.records import RawJobRecord
from repro.workload.ingest.swf import read_swf

__all__ = ["UnsortedStreamError", "stream_normalize", "stream_normalize_swf",
           "stream_normalize_columnar"]

RecordFactory = Callable[[], Iterable[RawJobRecord]]

#: Selected records buffered per synthesis batch in pass 2 — the only
#: O(chunk) state the streaming path holds.
DEFAULT_CHUNK = 2048


class UnsortedStreamError(ValueError):
    """A record came after one that sorts later in the normalizer's order.

    ``job_id`` and ``submit_time`` name the out-of-order record.
    """

    def __init__(self, job_id: int, submit_time: float) -> None:
        super().__init__(
            f"record stream is not sorted by (submit_time, job_id): "
            f"job {job_id} at submit {submit_time} arrived after a later "
            f"record; use normalize_records (which sorts) for out-of-order "
            f"archives")
        self.job_id = job_id
        self.submit_time = submit_time


def _iter_selected(records: Iterable[RawJobRecord], config: IngestConfig,
                   stats: Optional[IngestStats] = None,
                   stop_after_cap: bool = False,
                   ) -> Iterator[Tuple[int, RawJobRecord]]:
    """Yield ``(selected_index, record)`` for a *sorted* record stream.

    Stages 1-3, one record at a time and in the order the
    :class:`~.normalize.IngestConfig` contract states: usability/status
    filter, window relative to the first usable submit, the
    counter-based subsample draw at the record's windowed position, and
    the ``max_jobs`` cap. (The arrival axis is anchored elsewhere — at
    the first *selected* submit.) The subsample draw comes from
    ``config.seed``, never the per-trace seed, so the selected record
    set is a property of the scenario: paired per-seed trace variants
    share identical arrivals and demands. Raises
    :class:`UnsortedStreamError` if the stream is not sorted by the
    normalizer's record order.
    ``stop_after_cap`` returns at the first over-cap record (pass 2);
    otherwise the scan continues so ``stats`` counts the full stream
    (pass 1).
    """
    allowed = set(config.include_statuses) \
        if config.include_statuses is not None else None
    window = config.window
    thinning = config.subsample < 1.0
    t0: Optional[float] = None
    prev_key = None
    windowed_idx = 0
    selected_idx = 0
    block_id = -1
    block_values = None
    for r in records:
        if stats is not None:
            stats.n_records += 1
        if not r.usable():
            if stats is not None:
                stats.n_unusable += 1
            continue
        if allowed is not None and r.status not in allowed:
            if stats is not None:
                stats.n_status_filtered += 1
            continue
        key = _record_order(r)
        if prev_key is not None and key < prev_key:
            raise UnsortedStreamError(r.job_id, r.submit_time)
        prev_key = key
        if t0 is None:
            t0 = r.submit_time
        if window is not None:
            lo, hi = window
            if not (lo <= r.submit_time - t0 < hi):
                if stats is not None:
                    stats.n_windowed_out += 1
                continue
        if thinning:
            block, offset = divmod(windowed_idx, _UNIFORM_BLOCK)
            if block != block_id:
                block_values = _uniform_block(
                    config.seed, _SUBSAMPLE_STREAM, block, 1)[:, 0]
                block_id = block
            windowed_idx += 1
            if not (block_values[offset] < config.subsample):
                if stats is not None:
                    stats.n_subsampled_out += 1
                continue
        if config.max_jobs is not None and selected_idx >= config.max_jobs:
            if stop_after_cap:
                return
            if stats is not None:
                stats.n_over_cap += 1
            continue
        yield selected_idx, r
        selected_idx += 1
        if stats is not None:
            stats.n_selected += 1


def _first_pass(records_factory: RecordFactory, config: IngestConfig,
                platforms: Sequence[Platform],
                stats: Optional[IngestStats]) -> float:
    """Scan the stream once; return the arrival-axis ``scale``.

    Accumulates the clamp counts into ``stats`` and — when
    ``target_load`` is set — the offered-load probe: demand summed in
    selection order over affinities drawn from ``config.seed``, divided
    by cluster capacity times the span of the unscaled arrival ticks.
    """
    need_probe = config.target_load is not None
    capacity = sum(p.capacity for p in platforms)
    demand = 0.0
    min_arrival: Optional[int] = None
    max_arrival: Optional[int] = None
    # Probe affinities draw from config.seed (the scenario's time axis
    # is a property of the config, not the per-trace seed).
    probe_start = 0
    has_accel = len(platforms) > 1
    primary = platforms[0]
    accel = platforms[1] if has_accel else None
    arrival_t0: Optional[float] = None   # first *selected* submit time
    chunk_records: List[Tuple[RawJobRecord, float]] = []   # (record, work)

    def flush_probe() -> None:
        nonlocal demand, min_arrival, max_arrival, probe_start
        if not chunk_records:
            return
        _, on_accel, _, _ = _synthesis_arrays(
            config.seed, probe_start, len(chunk_records), config, has_accel)
        for j, (r, work) in enumerate(chunk_records):
            affinity = _affinity_for(on_accel[j], primary, accel, config)
            arrival = max(0, int(round(
                (r.submit_time - arrival_t0) * 1.0 / config.tick_seconds)))
            demand += _job_demand(work, affinity, platforms)
            if min_arrival is None or arrival < min_arrival:
                min_arrival = arrival
            if max_arrival is None or arrival > max_arrival:
                max_arrival = arrival
        probe_start += len(chunk_records)
        chunk_records.clear()

    # Without stats to fill, nothing is learned from records past the
    # max_jobs cap — stop the scan there instead of paying O(archive).
    for idx, r in _iter_selected(records_factory(), config, stats,
                                 stop_after_cap=stats is None):
        if arrival_t0 is None:
            arrival_t0 = r.submit_time
        _, _, _, work, clamped_d, clamped_w = _demand_model(r, config)
        if stats is not None:
            stats.n_clamped_duration += clamped_d
            stats.n_clamped_work += clamped_w
        if need_probe:
            chunk_records.append((r, work))
            if len(chunk_records) >= DEFAULT_CHUNK:
                flush_probe()
    if not need_probe:
        return 1.0
    flush_probe()
    if max_arrival is None:        # nothing selected
        return 1.0
    span = max(1, max_arrival - min_arrival)
    load_now = demand / (capacity * span)
    if load_now > 0:
        return load_now / config.target_load
    return 1.0


def _second_pass(records_factory: RecordFactory, config: IngestConfig,
                 platforms: Sequence[Platform], effective_seed: int,
                 scale: float, chunk_size: int) -> Iterator[Job]:
    """Re-stream the records and emit jobs chunk by chunk."""
    primary = platforms[0]
    accel = platforms[1] if len(platforms) > 1 else None
    has_accel = accel is not None
    base_speeds = {p.name: p.base_speed for p in platforms}
    chunk: List[RawJobRecord] = []
    start = 0
    arrival_t0: Optional[float] = None   # first *selected* submit time

    def emit_chunk() -> Iterator[Job]:
        nonlocal start
        is_tc, on_accel, tc_tau, be_tau = _synthesis_arrays(
            effective_seed, start, len(chunk), config, has_accel)
        for j, r in enumerate(chunk):
            width, model, _, work, _, _ = _demand_model(r, config)
            arrival_tick = int(round(
                (r.submit_time - arrival_t0) * scale / config.tick_seconds))
            yield _emit_job(arrival_tick, width, model, work,
                            is_tc[j], on_accel[j], tc_tau[j], be_tau[j],
                            primary, accel, base_speeds, config)
        start += len(chunk)
        chunk.clear()

    for _, r in _iter_selected(records_factory(), config,
                               stop_after_cap=True):
        if arrival_t0 is None:
            arrival_t0 = r.submit_time
        chunk.append(r)
        if len(chunk) >= chunk_size:
            yield from emit_chunk()
    if chunk:
        yield from emit_chunk()


def stream_normalize(
    records_factory: RecordFactory,
    config: IngestConfig,
    platforms: Sequence[Platform],
    seed: Optional[int] = None,
    stats: Optional[IngestStats] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[Job]:
    """Normalize a re-streamable record source in bounded memory.

    ``records_factory`` is called once per pass and must yield the same
    records each time (e.g. ``lambda: read_swf(path)``), sorted by the
    normalizer's record order (submit time, job id, tie-breakers) —
    archive logs are; an out-of-order stream raises
    :class:`UnsortedStreamError`.

    The emitted job stream does not depend on ``chunk_size`` (the
    number of selected records held at a time), and
    ``normalize_records(records, config, platforms, seed)`` is this
    function over the same records once sorted. ``stats`` is filled
    during pass 1, i.e. complete as soon as this function returns.

    Pass 1 is skipped entirely — making this single-pass — when neither
    ``target_load`` nor ``stats`` asks for whole-stream aggregates.
    """
    if not platforms:
        raise ValueError("need at least one platform")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    effective_seed = config.seed if seed is None else seed
    scale = 1.0
    if config.target_load is not None or stats is not None:
        scale = _first_pass(records_factory, config, platforms, stats)
    return _second_pass(records_factory, config, platforms,
                        effective_seed, scale, chunk_size)


def stream_normalize_swf(
    path: str,
    config: IngestConfig,
    platforms: Sequence[Platform],
    seed: Optional[int] = None,
    stats: Optional[IngestStats] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[Job]:
    """Streamed normalization of an SWF file (plain or ``.gz``)."""
    return stream_normalize(lambda: read_swf(path), config, platforms,
                            seed=seed, stats=stats, chunk_size=chunk_size)


def stream_normalize_columnar(
    path: str,
    spec: ColumnarSpec,
    config: IngestConfig,
    platforms: Sequence[Platform],
    seed: Optional[int] = None,
    stats: Optional[IngestStats] = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[Job]:
    """Streamed normalization of a columnar CSV file (plain or ``.gz``)."""
    return stream_normalize(lambda: read_columnar(path, spec), config,
                            platforms, seed=seed, stats=stats,
                            chunk_size=chunk_size)
