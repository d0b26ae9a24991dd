"""Structure-of-arrays state tables behind the simulation hot paths.

The object model (:class:`~repro.sim.job.Job`, :class:`~repro.sim.cluster.Cluster`)
is the API surface a thousand tests and every policy program against —
but walking per-job Python objects attribute by attribute caps the
kernel far below the 1k-node / 100k-job scale the paper's scalability
story implies. This module moves the *hot* state into contiguous numpy
columns:

* a **job table** — ``arrival/work/deadline/progress/weight`` float
  columns, ``state``/``miss_recorded`` codes, the current placement
  (``platform_idx``, ``parallelism``, ``rate``), the elasticity range,
  and a per-platform affinity matrix — indexed by a dense *slot id*
  assigned at adoption;
* **platform counters** — capacity, used and offline units as Python
  int lists indexed by platform position (they are only ever read one
  element at a time, where a numpy scalar read costs more than a list
  index);
* a **running set** — an unordered slot array with O(1) insert/remove
  (swap-remove) plus a monotone ``alloc_seq`` column from which
  allocation order is recovered lazily when an ordered view is needed.

``Job`` instances remain the API: after :meth:`StateTables.adopt` their
hot fields become property views that read and write the columns (see
``job.py``), so code that walks ``Job`` objects and code that reads the
columns observe the same state by construction.

Bit-exactness
-------------
The kernel's fast-forward contract is *repeated addition*: progress
accrues via ``span`` individual float adds. :func:`exact_span_total`
proves, per job, when the closed form ``progress + span * rate`` is
bit-identical to that loop — both operands are decomposed with
``float.as_integer_ratio()`` onto a common power-of-two denominator
``d``; if every partial numerator fits in 53 bits (and ``d`` stays out
of the subnormal range) every intermediate sum is exactly representable,
so each float addition is exact and the closed form equals the loop.
Jobs that fail the proof fall back to actual repeated addition (done
vectorized over the inexact subset). The ``pin_cutoff`` context manager
routes every size-dispatched site to one side so the equivalence suite
can compare the column and loop paths over identical storage.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.sim.platform import Platform

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.job import Job

__all__ = [
    "StateTables",
    "use_vector",
    "pin_cutoff",
    "exact_span_total",
    "apply_span_progress",
    "PENDING", "RUNNING", "FINISHED", "DROPPED",
]

# Job state codes. PENDING/RUNNING are the *live* states; the miss-scan
# lower bound and the running projections rely on ``code <= RUNNING``.
PENDING, RUNNING, FINISHED, DROPPED = 0, 1, 2, 3

_INITIAL_CAPACITY = 64

# Denominators past this many bits sit near the subnormal range where
# "numerator fits in 53 bits" no longer implies exact representability.
_MAX_DENOM_BITS = 970

# Below this many running jobs a numpy column operation costs more in
# fixed per-call overhead than the scalar-column loop it replaces, so
# ``Cluster.advance`` and the kernel's next-event projection dispatch by
# size: small sets take the loop, big sets the columns. Both paths are
# bit-identical (the parity suite runs them against each other under
# ``pin_cutoff``), so the switch is purely a latency decision.
_vector_cutoff: float = 32


def use_vector(n: int) -> bool:
    """Whether a size-dispatched site should take the column path for
    ``n`` items (``n`` clears the cutoff)."""
    return n >= _vector_cutoff


@contextmanager
def pin_cutoff(cutoff: float):
    """Pin the column/loop cutoff within the block.

    ``pin_cutoff(0)`` sends every size-dispatched site to the columns;
    ``pin_cutoff(math.inf)`` sends every site to the loops. The parity
    suites run the same trace under both and demand identical results.
    """
    global _vector_cutoff
    prev = _vector_cutoff
    _vector_cutoff = cutoff
    try:
        yield
    finally:
        _vector_cutoff = prev


def exact_span_total(progress: float, rate: float, span: int) -> Optional[float]:
    """``progress`` after ``span`` additions of ``rate`` — closed form.

    Returns the total only when it is provably bit-identical to the
    repeated-addition loop, else ``None``. Proof sketch: write
    ``progress = pn/d`` and ``rate = rn/d`` exactly (power-of-two common
    denominator). Every partial sum is ``(pn + k*rn)/d``; if both
    numerators are non-negative and the *final* numerator fits in 53
    bits, so does every partial one, hence every intermediate value is
    exactly representable, every IEEE addition along the way is exact,
    and the loop equals ``(pn + span*rn)/d`` — which Python's exact
    int/int division reproduces.
    """
    pn, pd = float(progress).as_integer_ratio()
    rn, rd = float(rate).as_integer_ratio()
    if pn < 0 or rn < 0:
        return None
    if pd.bit_length() > _MAX_DENOM_BITS or rd.bit_length() > _MAX_DENOM_BITS:
        return None
    # Denominators are powers of two: align by shifting the numerator.
    if pd >= rd:
        rn <<= pd.bit_length() - rd.bit_length()
        d = pd
    else:
        pn <<= rd.bit_length() - pd.bit_length()
        d = rd
    total = pn + span * rn
    if total.bit_length() > 53:
        return None
    return total / d


def apply_span_progress(tables: "StateTables", slots: np.ndarray, span: int) -> None:
    """Accrue ``span`` ticks of progress for ``slots``, bit-exact.

    Uses :func:`exact_span_total` per job; the (rare) jobs whose spans
    cannot be proven exact accrue by actual repeated addition, batched
    elementwise over the inexact subset so the cost is ``O(span)`` numpy
    ops instead of ``O(span * jobs)`` Python ops.
    """
    progress = tables.progress
    rate = tables.rate
    inexact: List[int] = []
    for s in slots.tolist():
        total = exact_span_total(progress[s], rate[s], span)
        if total is None:
            inexact.append(s)
        else:
            progress[s] = total
    if not inexact:
        return
    idx = np.asarray(inexact, dtype=np.int64)
    vals = progress[idx].copy()
    rates = rate[idx]
    for _ in range(span):
        vals += rates
    progress[idx] = vals


class StateTables:
    """Contiguous columns for the hot job/platform state.

    One instance is owned by each :class:`~repro.sim.cluster.Cluster`
    (and shared with its :class:`~repro.sim.simulation.Simulation`).
    Jobs enter via :meth:`adopt`, which snapshots their current field
    values into a fresh slot and re-points the instance at the columns.
    The tables hold no reference back to the jobs (the slot -> ``Job``
    list is ``Cluster.jobs``), so a job and its tables form no reference
    cycle and a finished run is freed without waiting for the cyclic GC.
    """

    def __init__(self, platforms: Sequence[Platform]) -> None:
        self.pindex: Dict[str, int] = {p.name: i for i, p in enumerate(platforms)}
        n_p = len(platforms)
        self.p_capacity: List[int] = [int(p.capacity) for p in platforms]
        self.p_used: List[int] = [0] * n_p
        self.p_offline: List[int] = [0] * n_p
        # Scalar aggregates mirrored by :meth:`use_units` /
        # :meth:`offline_delta` so cluster-wide reads (utilization
        # sampling, availability, ``Cluster.total_free``) are O(1).
        self.capacity_total = sum(self.p_capacity)
        self.used_total = 0
        self.offline_total = 0

        self.n_jobs = 0
        self.class_names: List[str] = []
        self._class_index: Dict[str, int] = {}

        cap = _INITIAL_CAPACITY
        self._capacity = cap
        self.arrival = np.zeros(cap, dtype=np.float64)
        self.work = np.zeros(cap, dtype=np.float64)
        self.deadline = np.zeros(cap, dtype=np.float64)
        self.progress = np.zeros(cap, dtype=np.float64)
        self.weight = np.ones(cap, dtype=np.float64)
        self.state = np.zeros(cap, dtype=np.int8)
        self.miss = np.zeros(cap, dtype=bool)
        self.platform_idx = np.full(cap, -1, dtype=np.int16)
        self.parallelism = np.zeros(cap, dtype=np.int64)
        self.min_par = np.ones(cap, dtype=np.int64)
        self.max_par = np.ones(cap, dtype=np.int64)
        self.rate = np.zeros(cap, dtype=np.float64)
        self.finish = np.full(cap, np.nan, dtype=np.float64)
        self.alloc_seq = np.full(cap, -1, dtype=np.int64)
        self.class_id = np.zeros(cap, dtype=np.int32)
        self.affinity = np.zeros((cap, n_p), dtype=np.float64)

        # Running set: unordered slots + positions, O(1) add/swap-remove.
        self.run_count = 0
        self._run_slots = np.zeros(cap, dtype=np.int64)
        self._run_pos = np.full(cap, -1, dtype=np.int64)
        self._next_alloc_seq = 0
        self._ordered: Optional[np.ndarray] = None
        self._ordered_dirty = True

        # Raised whenever a mutation may *lower* the min live deadline
        # (deadline rewrite, un-missing, resurrection, adoption); the
        # miss-scan fast path recomputes its bound when it sees this.
        self.deadline_dirty = True

    # --- growth ---------------------------------------------------------------
    def _grow(self, need: int) -> None:
        new_cap = max(self._capacity * 2, need)
        for name in ("arrival", "work", "deadline", "progress", "weight",
                     "state", "miss", "platform_idx", "parallelism",
                     "min_par", "max_par", "rate", "finish", "alloc_seq",
                     "class_id", "_run_slots", "_run_pos"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, dtype=old.dtype)
            fresh[: old.shape[0]] = old
            setattr(self, name, fresh)
        # Defaults for the uninitialized tail of sentinel-bearing columns.
        self.platform_idx[self._capacity:] = -1
        self.finish[self._capacity:] = np.nan
        self.alloc_seq[self._capacity:] = -1
        self._run_pos[self._capacity:] = -1
        aff = np.zeros((new_cap, self.affinity.shape[1]), dtype=np.float64)
        aff[: self._capacity] = self.affinity[: self._capacity]
        self.affinity = aff
        self._capacity = new_cap

    # --- adoption -------------------------------------------------------------
    def adopt(self, job: "Job") -> int:
        """Attach ``job`` to a fresh slot, snapshotting its current state.

        Values are read *before* re-pointing the instance, so adopting a
        job already attached elsewhere copies its live table state.
        """
        from repro.sim.job import _STATE_CODES  # local: avoid import cycle

        arrival = job.arrival_time
        work = job.work
        deadline = job.deadline
        weight = job.weight
        state_code = _STATE_CODES[job.state]
        progress = job.progress
        parallelism = job.parallelism
        miss = job.miss_recorded
        finish = job.finish_time
        min_par = job.min_parallelism
        max_par = job.max_parallelism

        slot = self.n_jobs
        if slot >= self._capacity:
            self._grow(slot + 1)
        self.arrival[slot] = arrival
        self.work[slot] = work
        self.deadline[slot] = deadline
        self.weight[slot] = weight
        self.state[slot] = state_code
        self.progress[slot] = progress
        self.parallelism[slot] = parallelism
        self.miss[slot] = miss
        self.finish[slot] = np.nan if finish is None else finish
        self.min_par[slot] = min_par
        self.max_par[slot] = max_par
        self.platform_idx[slot] = -1
        self.rate[slot] = 0.0
        self.alloc_seq[slot] = -1
        self._run_pos[slot] = -1
        cls = job.job_class
        cid = self._class_index.get(cls)
        if cid is None:
            cid = len(self.class_names)
            self._class_index[cls] = cid
            self.class_names.append(cls)
        self.class_id[slot] = cid
        row = self.affinity[slot]
        row[:] = 0.0
        for name, factor in job.affinity.items():
            idx = self.pindex.get(name)
            if idx is not None:
                row[idx] = factor
        self.n_jobs = slot + 1
        job.__dict__["_tables"] = self
        job.__dict__["_slot"] = slot
        if state_code <= RUNNING and not miss:
            self.deadline_dirty = True
        return slot

    def adopt_all(self, jobs: Iterable["Job"]) -> None:
        """Batch :meth:`adopt`: one bulk assignment per column.

        Snapshots every job *before* re-pointing any of them (same
        read-then-attach contract as ``adopt``), then fills the new slot
        range column-wise — adopting a whole trace this way is ~10x
        cheaper than per-job scalar stores.
        """
        from repro.sim.job import _STATE_CODES  # local: avoid import cycle

        jobs = [j for j in jobs]
        if not jobs:
            return
        start = self.n_jobs
        end = start + len(jobs)
        if end > self._capacity:
            self._grow(end)
        sl = slice(start, end)
        if all(j._tables is None for j in jobs):
            # Unattached jobs (the common case: a freshly built trace)
            # keep their hot fields in ``_loc_`` instance storage — read
            # the dicts directly instead of paying ~11 view-descriptor
            # calls per job.
            ds = [j.__dict__ for j in jobs]
            self.arrival[sl] = [d["_loc_arrival_time"] for d in ds]
            self.work[sl] = [d["_loc_work"] for d in ds]
            self.deadline[sl] = [d["_loc_deadline"] for d in ds]
            self.weight[sl] = [d["_loc_weight"] for d in ds]
            states = [_STATE_CODES[d["_loc_state"]] for d in ds]
            self.progress[sl] = [d["_loc_progress"] for d in ds]
            self.parallelism[sl] = [d["_loc_parallelism"] for d in ds]
            misses = [d["_loc_miss_recorded"] for d in ds]
            self.finish[sl] = [np.nan if (f := d["_loc_finish_time"]) is None
                               else f for d in ds]
            self.min_par[sl] = [d["_loc_min_parallelism"] for d in ds]
            self.max_par[sl] = [d["_loc_max_parallelism"] for d in ds]
        else:
            self.arrival[sl] = [j.arrival_time for j in jobs]
            self.work[sl] = [j.work for j in jobs]
            self.deadline[sl] = [j.deadline for j in jobs]
            self.weight[sl] = [j.weight for j in jobs]
            states = [_STATE_CODES[j.state] for j in jobs]
            self.progress[sl] = [j.progress for j in jobs]
            self.parallelism[sl] = [j.parallelism for j in jobs]
            misses = [j.miss_recorded for j in jobs]
            self.finish[sl] = [np.nan if (f := j.finish_time) is None else f
                               for j in jobs]
            self.min_par[sl] = [j.min_parallelism for j in jobs]
            self.max_par[sl] = [j.max_parallelism for j in jobs]
        self.state[sl] = states
        self.miss[sl] = misses
        self.platform_idx[sl] = -1
        self.rate[sl] = 0.0
        self.alloc_seq[sl] = -1
        self._run_pos[sl] = -1
        self.affinity[sl] = 0.0
        class_index = self._class_index
        pindex = self.pindex
        cids = []
        aff_rows: List[int] = []
        aff_cols: List[int] = []
        aff_vals: List[float] = []
        for slot, job in enumerate(jobs, start):
            cid = class_index.get(job.job_class)
            if cid is None:
                cid = len(self.class_names)
                class_index[job.job_class] = cid
                self.class_names.append(job.job_class)
            cids.append(cid)
            for name, factor in job.affinity.items():
                idx = pindex.get(name)
                if idx is not None:
                    aff_rows.append(slot)
                    aff_cols.append(idx)
                    aff_vals.append(factor)
        self.class_id[sl] = cids
        if aff_rows:
            self.affinity[aff_rows, aff_cols] = aff_vals
        self.n_jobs = end
        for slot, job in enumerate(jobs, start):
            job.__dict__["_tables"] = self
            job.__dict__["_slot"] = slot
        if any(s <= RUNNING and not m for s, m in zip(states, misses)):
            self.deadline_dirty = True

    # --- platform counters ----------------------------------------------------
    def use_units(self, pidx: int, delta: int) -> None:
        """Adjust a platform's in-use unit count (and the scalar total)."""
        self.p_used[pidx] += delta
        self.used_total += delta

    def offline_delta(self, pidx: int, delta: int) -> None:
        """Adjust a platform's offline unit count (and the scalar total)."""
        self.p_offline[pidx] += delta
        self.offline_total += delta

    # --- running set ----------------------------------------------------------
    def add_running(self, slot: int) -> None:
        pos = self.run_count
        self._run_slots[pos] = slot
        self._run_pos[slot] = pos
        self.run_count = pos + 1
        self.alloc_seq[slot] = self._next_alloc_seq
        self._next_alloc_seq += 1
        self._ordered_dirty = True

    def remove_running(self, slot: int) -> None:
        pos = self._run_pos[slot]
        last = self.run_count - 1
        last_slot = self._run_slots[last]
        self._run_slots[pos] = last_slot
        self._run_pos[last_slot] = pos
        self._run_pos[slot] = -1
        self.run_count = last
        self.alloc_seq[slot] = -1
        self._ordered_dirty = True

    def running_slots(self) -> np.ndarray:
        """Slots of running jobs, arbitrary order (live view — don't hold)."""
        return self._run_slots[: self.run_count]

    def running_slots_ordered(self) -> np.ndarray:
        """Slots of running jobs in allocation order (cached until dirty)."""
        if self._ordered_dirty:
            rs = self._run_slots[: self.run_count]
            self._ordered = rs[np.argsort(self.alloc_seq[rs])].copy()
            self._ordered_dirty = False
        return self._ordered

    # --- aggregates -----------------------------------------------------------
    def min_live_deadline(self) -> float:
        """Min deadline over live (pending/running) unmissed jobs; inf if none.

        Future (not yet admitted) jobs are safely included: validation
        guarantees ``deadline > arrival_time >= now`` for them.
        """
        n = self.n_jobs
        if n == 0:
            return math.inf
        if n < 512:
            # Scalar min over tolist'd columns: the masked reduction
            # below pays ~20us of fixed numpy overhead, which a plain
            # loop undercuts well past the running-set vector cutoff
            # (this recomputes once per recorded miss, not per tick).
            best = math.inf
            for s, m, d in zip(self.state[:n].tolist(),
                               self.miss[:n].tolist(),
                               self.deadline[:n].tolist()):
                if s <= RUNNING and not m and d < best:
                    best = d
            return best
        mask = (self.state[:n] <= RUNNING) & ~self.miss[:n]
        if not mask.any():
            return math.inf
        return float(self.deadline[:n][mask].min())
