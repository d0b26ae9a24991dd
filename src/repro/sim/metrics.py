"""Scheduling metrics.

The evaluation vocabulary of the paper's domain:

* **deadline miss rate** — fraction of completed-or-dropped jobs that did
  not finish by their deadline (the headline time-critical metric),
* **slowdown** — (finish - arrival) / ideal_duration, DeepRM's objective,
* **tardiness** — max(0, finish - deadline), and its mean over all jobs,
* **utilization** — time-averaged fraction of cluster units in use,
* **JCT / makespan / throughput** — standard cluster-scheduling metrics.

One reduction computes them all: :func:`merge_segments` over per-segment
value columns (:class:`SegmentMetrics`). :func:`compute_metrics` is that
reduction over a single segment; windowed evaluation merges one segment
per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.sim.job import Job, JobState

__all__ = ["JobRecord", "MetricsReport", "SegmentMetrics", "compute_metrics",
           "jain_fairness", "merge_segments", "records_from_tables"]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over non-negative allocations/slowdowns.

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when all values are equal,
    ``1/n`` when one value dominates. Applied here to per-class mean
    slowdowns: a scheduler that serves one class at the expense of
    another scores low even if its aggregate slowdown looks fine.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("fairness values must be non-negative")
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom


@dataclass(frozen=True)
class JobRecord:
    """Immutable per-job outcome extracted after a simulation run."""

    job_id: int
    job_class: str
    arrival: int
    deadline: float
    work: float
    finish: Optional[float]          # None => never finished (dropped/still pending)
    ideal_duration: float            # best-case duration at max parallelism on best platform
    missed: bool
    dropped: bool
    weight: float = 1.0

    @property
    def jct(self) -> Optional[float]:
        """Job completion time (None if unfinished)."""
        if self.finish is None:
            return None
        return self.finish - self.arrival

    @property
    def slowdown(self) -> Optional[float]:
        """JCT normalized by ideal duration (>= 1 for feasible placements)."""
        if self.finish is None:
            return None
        return (self.finish - self.arrival) / max(self.ideal_duration, 1e-9)

    @property
    def tardiness(self) -> float:
        """Lateness beyond the deadline; 0 when met or unfinished-but-dropped."""
        if self.finish is None:
            return 0.0
        return max(0.0, self.finish - self.deadline)


def record_from_job(job: Job, platforms: Dict[str, float]) -> JobRecord:
    """Build a :class:`JobRecord` from a simulated job.

    ``platforms`` maps platform name -> base_speed (for the ideal-duration
    denominator: best runnable platform at max parallelism).
    """
    best_rate = max(
        job.affinity[name] * base_speed * job.speedup_model.speedup(job.max_parallelism)
        for name, base_speed in platforms.items()
        if name in job.affinity
    )
    ideal = job.work / best_rate
    finished = job.state is JobState.FINISHED
    dropped = job.state is JobState.DROPPED
    finish = float(job.finish_time) if finished and job.finish_time is not None else None
    missed = (finish is None and (dropped or job.miss_recorded)) or (
        finish is not None and finish > job.deadline
    )
    return JobRecord(
        job_id=job.job_id,
        job_class=job.job_class,
        arrival=job.arrival_time,
        deadline=job.deadline,
        work=job.work,
        finish=finish,
        ideal_duration=ideal,
        missed=missed,
        dropped=dropped,
        weight=job.weight,
    )


def records_from_tables(tables, jobs, now: float,
                        platforms: Dict[str, float]) -> List[JobRecord]:
    """Batch :func:`record_from_job` over a SoA job table.

    ``jobs`` is the tables' slot -> ``Job`` list (``Cluster.jobs``).
    Produces the same records (same floats, same order) as mapping
    ``record_from_job`` over ``jobs`` filtered to
    ``arrival_time <= now``, but reads each column once instead of
    touching every ``Job`` attribute: one fancy-index gather per column,
    with the per-job work reduced to the affinity/speedup maximum (the
    speedup factor is memoized per ``(model, max_parallelism)``).
    """
    from repro.sim.soa import DROPPED as _DROPPED, FINISHED as _FINISHED

    n = tables.n_jobs
    idx = np.nonzero(tables.arrival[:n] <= now)[0]
    arrival = tables.arrival[idx].tolist()
    deadline = tables.deadline[idx].tolist()
    work = tables.work[idx].tolist()
    weight = tables.weight[idx].tolist()
    state = tables.state[idx].tolist()
    miss = tables.miss[idx].tolist()
    finish_col = tables.finish[idx].tolist()
    max_par = tables.max_par[idx].tolist()

    factor_cache: Dict[tuple, float] = {}
    records: List[JobRecord] = []
    for k, i in enumerate(idx.tolist()):
        job = jobs[i]
        key = (job.speedup_model, max_par[k])
        factor = factor_cache.get(key)
        if factor is None:
            factor = job.speedup_model.speedup(max_par[k])
            factor_cache[key] = factor
        affinity = job.affinity
        best_rate = max(
            affinity[name] * base_speed * factor
            for name, base_speed in platforms.items()
            if name in affinity
        )
        finished = state[k] == _FINISHED
        dropped = state[k] == _DROPPED
        f = finish_col[k]
        finish = float(f) if finished and f == f else None
        missed = (finish is None and (dropped or miss[k])) or (
            finish is not None and finish > deadline[k]
        )
        a = arrival[k]
        ai = int(a)
        records.append(JobRecord(
            job_id=i,
            job_class=job.job_class,
            arrival=ai if ai == a else a,
            deadline=deadline[k],
            work=work[k],
            finish=finish,
            ideal_duration=work[k] / best_rate,
            missed=missed,
            dropped=dropped,
            weight=weight[k],
        ))
    return records


@dataclass
class MetricsReport:
    """Aggregate metrics over one simulation run."""

    num_jobs: int
    num_finished: int
    num_missed: int
    num_dropped: int
    miss_rate: float
    mean_slowdown: float
    p95_slowdown: float
    mean_jct: float
    mean_tardiness: float
    makespan: float
    throughput: float
    mean_utilization: float
    class_fairness: float = 1.0     # Jain index over per-class mean slowdowns
    per_class_miss_rate: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for CSV/table emission (per-class keys prefixed)."""
        out = {
            "num_jobs": self.num_jobs,
            "num_finished": self.num_finished,
            "num_missed": self.num_missed,
            "num_dropped": self.num_dropped,
            "miss_rate": self.miss_rate,
            "mean_slowdown": self.mean_slowdown,
            "p95_slowdown": self.p95_slowdown,
            "mean_jct": self.mean_jct,
            "mean_tardiness": self.mean_tardiness,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "mean_utilization": self.mean_utilization,
            "class_fairness": self.class_fairness,
        }
        for cls, rate in sorted(self.per_class_miss_rate.items()):
            out[f"miss_rate[{cls}]"] = rate
        return out


def compute_metrics(
    records: Sequence[JobRecord],
    utilization_series: Optional[Sequence[float]] = None,
    horizon: Optional[float] = None,
) -> MetricsReport:
    """Aggregate job records into a :class:`MetricsReport`.

    ``utilization_series`` is the per-tick cluster utilization (E7's
    timeline); ``horizon`` overrides the makespan used for throughput.
    This is :func:`merge_segments` over the one segment the records
    make.
    """
    return merge_segments([SegmentMetrics.from_records(
        records, utilization_series=utilization_series, horizon=horizon)])


@dataclass
class SegmentMetrics:
    """Mergeable per-segment metrics accumulator.

    Holds the per-record *value columns* (in record order) that
    :func:`merge_segments` reduces over, instead of the scalar
    aggregates — so any partition of a job stream into contiguous
    segments reduces to the exact floats of a single
    :func:`compute_metrics` call (one segment) over the concatenated
    records. Concatenation preserves record order, which pins numpy's
    pairwise mean/percentile reductions bit-for-bit.

    ``finish`` and ``horizon`` are on the *global* time axis: a segment
    simulated on a re-based clock passes its window ``offset`` to
    :meth:`from_records` so shift-sensitive aggregates (makespan,
    throughput) come out right, while slowdown/jct/tardiness are
    shift-invariant and stored as computed.
    """

    n_jobs: int
    classes: List[str]              # sorted unique job classes in this segment
    class_idx: np.ndarray           # (n_jobs,) int32 index into ``classes``
    finished: np.ndarray            # (n_jobs,) bool
    missed: np.ndarray              # (n_jobs,) bool
    dropped: np.ndarray             # (n_jobs,) bool
    slowdown: np.ndarray            # (n_jobs,) float64; NaN where unfinished
    jct: np.ndarray                 # (n_jobs,) float64; NaN where unfinished
    tardiness: np.ndarray           # (n_jobs,) float64
    finish: np.ndarray              # (n_jobs,) float64, global axis; NaN unfinished
    utilization: np.ndarray         # per-tick utilization series (float64)
    horizon: Optional[float] = None  # global end-of-segment sim time

    @classmethod
    def from_records(
        cls,
        records: Sequence[JobRecord],
        utilization_series: Optional[Sequence[float]] = None,
        horizon: Optional[float] = None,
        offset: float = 0.0,
    ) -> "SegmentMetrics":
        """Accumulate one segment's records.

        ``offset`` is added to every finish time (``horizon`` is expected
        to already be global — the caller knows its own clock).
        """
        classes = sorted({r.job_class for r in records})
        cls_pos = {c: i for i, c in enumerate(classes)}
        n = len(records)
        class_idx = np.fromiter(
            (cls_pos[r.job_class] for r in records), dtype=np.int32, count=n)
        nan = float("nan")
        return cls(
            n_jobs=n,
            classes=classes,
            class_idx=class_idx,
            finished=np.fromiter(
                (r.finish is not None for r in records), dtype=bool, count=n),
            missed=np.fromiter((r.missed for r in records), dtype=bool, count=n),
            dropped=np.fromiter((r.dropped for r in records), dtype=bool, count=n),
            slowdown=np.fromiter(
                (nan if r.finish is None else r.slowdown for r in records),
                dtype=np.float64, count=n),
            jct=np.fromiter(
                (nan if r.finish is None else r.jct for r in records),
                dtype=np.float64, count=n),
            tardiness=np.fromiter(
                (r.tardiness for r in records), dtype=np.float64, count=n),
            finish=np.fromiter(
                (nan if r.finish is None else r.finish + offset for r in records),
                dtype=np.float64, count=n),
            utilization=np.asarray(
                utilization_series if utilization_series is not None else [],
                dtype=np.float64),
            horizon=None if horizon is None else float(horizon),
        )

    def to_payload(self) -> Dict:
        """JSON-serializable form (floats round-trip exactly; NaN allowed)."""
        return {
            "n_jobs": self.n_jobs,
            "classes": list(self.classes),
            "class_idx": self.class_idx.tolist(),
            "finished": [int(b) for b in self.finished.tolist()],
            "missed": [int(b) for b in self.missed.tolist()],
            "dropped": [int(b) for b in self.dropped.tolist()],
            "slowdown": self.slowdown.tolist(),
            "jct": self.jct.tolist(),
            "tardiness": self.tardiness.tolist(),
            "finish": self.finish.tolist(),
            "utilization": self.utilization.tolist(),
            "horizon": self.horizon,
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "SegmentMetrics":
        return cls(
            n_jobs=int(payload["n_jobs"]),
            classes=[str(c) for c in payload["classes"]],
            class_idx=np.asarray(payload["class_idx"], dtype=np.int32),
            finished=np.asarray(payload["finished"], dtype=bool),
            missed=np.asarray(payload["missed"], dtype=bool),
            dropped=np.asarray(payload["dropped"], dtype=bool),
            slowdown=np.asarray(payload["slowdown"], dtype=np.float64),
            jct=np.asarray(payload["jct"], dtype=np.float64),
            tardiness=np.asarray(payload["tardiness"], dtype=np.float64),
            finish=np.asarray(payload["finish"], dtype=np.float64),
            utilization=np.asarray(payload["utilization"], dtype=np.float64),
            horizon=None if payload.get("horizon") is None
            else float(payload["horizon"]),
        )


def merge_segments(segments: Sequence[SegmentMetrics]) -> MetricsReport:
    """The one metrics reduction: exact and deterministic.

    Reduces value columns concatenated in segment order (== global
    record order), so the report is float for float the one
    :func:`compute_metrics` returns over the concatenation of the
    segments' records, their utilization series concatenated in segment
    order, and ``horizon = max(segment horizons)``.
    """
    segs = list(segments)
    n_records = sum(s.n_jobs for s in segs)
    if n_records == 0:
        return MetricsReport(
            num_jobs=0, num_finished=0, num_missed=0, num_dropped=0,
            miss_rate=0.0, mean_slowdown=0.0, p95_slowdown=0.0, mean_jct=0.0,
            mean_tardiness=0.0, makespan=0.0, throughput=0.0,
            mean_utilization=0.0,
        )

    fin_masks = [s.finished for s in segs]
    num_finished = int(sum(int(m.sum()) for m in fin_masks))
    num_missed = int(sum(int(s.missed.sum()) for s in segs))
    num_dropped = int(sum(int(s.dropped.sum()) for s in segs))

    if num_finished:
        slowdowns = np.concatenate([s.slowdown[m] for s, m in zip(segs, fin_masks)])
        jcts = np.concatenate([s.jct[m] for s, m in zip(segs, fin_masks)])
        finishes = np.concatenate([s.finish[m] for s, m in zip(segs, fin_masks)])
        makespan = float(finishes.max())
    else:
        slowdowns = np.array([0.0])
        jcts = np.array([0.0])
        makespan = 0.0
    tard = np.concatenate([s.tardiness for s in segs])
    horizons = [s.horizon for s in segs if s.horizon is not None]
    if horizons:
        makespan = max(makespan, float(max(horizons)))
    series = np.concatenate([s.utilization for s in segs])
    util = float(np.mean(series)) if series.size else 0.0

    per_class: Dict[str, float] = {}
    class_slowdowns = []
    classes = sorted(set().union(*[set(s.classes) for s in segs]))
    for c in classes:
        cls_masks = []
        for s in segs:
            if c in s.classes:
                cls_masks.append(s.class_idx == s.classes.index(c))
            else:
                cls_masks.append(np.zeros(s.n_jobs, dtype=bool))
        total = sum(int(m.sum()) for m in cls_masks)
        miss_cnt = sum(int((s.missed & m).sum()) for s, m in zip(segs, cls_masks))
        per_class[c] = miss_cnt / total
        cls_sd = np.concatenate(
            [s.slowdown[m & f] for s, m, f in zip(segs, cls_masks, fin_masks)])
        if cls_sd.size:
            class_slowdowns.append(float(np.mean(cls_sd)))
    fairness = jain_fairness(class_slowdowns)

    return MetricsReport(
        num_jobs=n_records,
        num_finished=num_finished,
        num_missed=num_missed,
        num_dropped=num_dropped,
        miss_rate=num_missed / n_records,
        mean_slowdown=float(np.mean(slowdowns)),
        p95_slowdown=float(np.percentile(slowdowns, 95)),
        mean_jct=float(np.mean(jcts)),
        mean_tardiness=float(np.mean(tard)),
        makespan=makespan,
        throughput=(num_finished / makespan) if makespan > 0 else 0.0,
        mean_utilization=util,
        class_fairness=fairness,
        per_class_miss_rate=per_class,
    )
