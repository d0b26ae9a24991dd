"""Malleable, deadline-carrying job model.

A job is *elastic*: it may run with any integer parallelism in
``[min_parallelism, max_parallelism]`` and the allocation may be grown or
shrunk while it runs. Its progress rate on platform ``p`` with ``k``
units is ``affinity[p] * platform.base_speed * speedup(k)`` reference
units per tick; it completes when cumulative progress reaches ``work``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from repro.sim.speedup import LinearSpeedup, SpeedupModel, cached_speedup

__all__ = ["Job", "JobState"]

#: Distinguishes "argument omitted" from an explicit None in the
#: hand-written ``Job.__init__`` below (mirrors the dataclass factories).
_MISSING = object()


class JobState(enum.Enum):
    """Lifecycle of a job inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    DROPPED = "dropped"


#: JobState <-> int8 code used by the SoA state tables (see sim/soa.py).
_STATES = (JobState.PENDING, JobState.RUNNING, JobState.FINISHED, JobState.DROPPED)
_STATE_CODES = {s: i for i, s in enumerate(_STATES)}


@dataclass(eq=False)
class Job:
    """One unit of time-critical work submitted to the cluster.

    Equality is identity: two jobs are the same job only if they are the
    same object, so ``pending.remove(job)`` and membership tests never
    compare fields, and jobs are hashable.

    Parameters
    ----------
    arrival_time:
        Tick at which the job enters the pending queue.
    work:
        Service demand in reference unit-ticks (progress needed).
    deadline:
        Absolute tick by which the job should finish. ``finish > deadline``
        is a deadline miss.
    min_parallelism / max_parallelism:
        Elasticity range. ``min == max`` models a *rigid* job.
    speedup_model:
        Parallel scaling law (see :mod:`repro.sim.speedup`).
    affinity:
        Mapping platform name -> speed factor. Platforms absent from the
        mapping cannot run the job. Values must be positive.
    job_class:
        Workload-class label (used by metrics breakdowns and the state
        encoder), e.g. ``"tc-gpu"`` for time-critical accelerator jobs.
    weight:
        Relative importance in the slowdown-shaped reward (default 1).

    A job's ``job_id`` is its slot in the simulation that adopted it
    (see :meth:`repro.sim.soa.StateTables.adopt`): ids are local to one
    simulation, and a job that no simulation holds has none (``None``).
    """

    arrival_time: int
    work: float
    deadline: float
    min_parallelism: int = 1
    max_parallelism: int = 1
    speedup_model: SpeedupModel = field(default_factory=LinearSpeedup)
    affinity: Dict[str, float] = field(default_factory=dict)
    job_class: str = "default"
    weight: float = 1.0

    # --- mutable runtime state -------------------------------------------
    state: JobState = JobState.PENDING
    progress: float = 0.0
    platform: Optional[str] = None
    parallelism: int = 0
    start_time: Optional[int] = None
    finish_time: Optional[int] = None
    miss_recorded: bool = False
    grow_count: int = 0
    shrink_count: int = 0
    preempt_count: int = 0
    migrate_count: int = 0
    # Single-slot memo of rate_on(platform, k, base_speed): a job is
    # queried with the same arguments many times while its allocation
    # stays put.
    _rate_memo: Optional[tuple] = field(default=None, repr=False)

    # SoA attachment (class attributes, not dataclass fields): once a
    # StateTables adopts the job, the hot fields above become property
    # views over its columns — see ``_install_table_views`` below — and
    # ``job_id`` becomes its slot.
    _tables = None
    _slot = -1
    job_id = None

    def __init__(self, arrival_time, work, deadline, min_parallelism=1,
                 max_parallelism=1, speedup_model=_MISSING, affinity=_MISSING,
                 job_class="default", weight=1.0,
                 state=JobState.PENDING, progress=0.0, platform=None,
                 parallelism=0, start_time=None, finish_time=None,
                 miss_recorded=False, grow_count=0, shrink_count=0,
                 preempt_count=0, migrate_count=0, _rate_memo=None):
        # Hand-written rather than dataclass-generated (a user-defined
        # ``__init__`` takes precedence): the generated one assigns every
        # hot field through the table-view descriptors and the validator
        # reads them all back, which triples construction cost. Jobs are
        # built in bulk by every trace generator, so validate and store
        # from the locals directly. Signature and semantics match the
        # generated constructor field-for-field.
        if speedup_model is _MISSING:
            speedup_model = LinearSpeedup()
        if affinity is _MISSING:
            affinity = {}
        if arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if work <= 0:
            raise ValueError("work must be positive")
        if deadline <= arrival_time:
            raise ValueError("deadline must be after arrival")
        if min_parallelism < 1:
            raise ValueError("min_parallelism must be >= 1")
        if max_parallelism < min_parallelism:
            raise ValueError("max_parallelism must be >= min_parallelism")
        if not affinity:
            raise ValueError("job must be runnable on at least one platform")
        for name, factor in affinity.items():
            if factor <= 0:
                raise ValueError(f"affinity for {name!r} must be positive")
        if weight <= 0:
            raise ValueError("weight must be positive")
        d = self.__dict__
        d["_loc_arrival_time"] = arrival_time
        d["_loc_work"] = work
        d["_loc_deadline"] = deadline
        d["_loc_min_parallelism"] = min_parallelism
        d["_loc_max_parallelism"] = max_parallelism
        d["_loc_weight"] = weight
        d["_loc_state"] = state
        d["_loc_progress"] = progress
        d["_loc_parallelism"] = parallelism
        d["_loc_finish_time"] = finish_time
        d["_loc_miss_recorded"] = miss_recorded
        d["speedup_model"] = speedup_model
        d["affinity"] = affinity
        d["job_class"] = job_class
        d["platform"] = platform
        d["start_time"] = start_time
        d["grow_count"] = grow_count
        d["shrink_count"] = shrink_count
        d["preempt_count"] = preempt_count
        d["migrate_count"] = migrate_count
        d["_rate_memo"] = _rate_memo

    # --- derived quantities ----------------------------------------------
    @property
    def is_elastic(self) -> bool:
        """Whether the elasticity range is non-degenerate."""
        return self.max_parallelism > self.min_parallelism

    @property
    def remaining_work(self) -> float:
        """Reference unit-ticks still required."""
        return max(0.0, self.work - self.progress)

    def rate_on(self, platform_name: str, k: int, base_speed: float = 1.0) -> float:
        """Progress units gained per tick with ``k`` units of ``platform_name``."""
        memo = self._rate_memo
        if memo is not None and memo[0] == platform_name and memo[1] == k \
                and memo[2] == base_speed:
            return memo[3]
        if platform_name not in self.affinity:
            raise ValueError(f"job {self.job_id} cannot run on {platform_name!r}")
        rate = self.affinity[platform_name] * base_speed * cached_speedup(self.speedup_model, k)
        self._rate_memo = (platform_name, k, base_speed, rate)
        return rate

    def best_case_duration(self, platform_name: str, base_speed: float = 1.0) -> float:
        """Ticks to finish remaining work at maximum parallelism on a platform."""
        rate = self.rate_on(platform_name, self.max_parallelism, base_speed)
        return self.remaining_work / rate

    def slack(self, now: float, platform_name: Optional[str] = None,
              base_speed: float = 1.0) -> float:
        """Laxity: time-to-deadline minus best-case remaining duration.

        Negative slack means the deadline is already unachievable even at
        maximum parallelism. When ``platform_name`` is None the most
        favourable runnable platform (highest affinity) is assumed —
        usable before placement.
        """
        if platform_name is None:
            platform_name = max(self.affinity, key=self.affinity.get)
        return (self.deadline - now) - self.best_case_duration(platform_name, base_speed)

    def deadline_met(self) -> bool:
        """True iff the job finished at or before its deadline."""
        return self.finish_time is not None and self.finish_time <= self.deadline

    def clone_pending(self) -> "Job":
        """A fresh PENDING copy (runtime state reset, unattached, so no
        ``job_id`` until a simulation adopts it).

        Unattached jobs (trace templates) read their ``_loc_`` storage
        directly — rollout resets clone whole traces per episode, and
        the view descriptors triple the copy cost.
        """
        if self._tables is None:
            d = self.__dict__
            return Job(d["_loc_arrival_time"], d["_loc_work"],
                       d["_loc_deadline"], d["_loc_min_parallelism"],
                       d["_loc_max_parallelism"], self.speedup_model,
                       dict(self.affinity), self.job_class,
                       d["_loc_weight"])
        return Job(self.arrival_time, self.work, self.deadline,
                   self.min_parallelism, self.max_parallelism,
                   self.speedup_model, dict(self.affinity), self.job_class,
                   self.weight)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, cls={self.job_class}, arr={self.arrival_time}, "
            f"work={self.work:.1f}, ddl={self.deadline:.0f}, "
            f"k∈[{self.min_parallelism},{self.max_parallelism}], state={self.state.value})"
        )

    # --- serialization: detach from the tables ---------------------------------
    def __getstate__(self):
        # Snapshot field values through the properties so pickled/copied
        # jobs carry their live state without dragging the table arrays
        # (or the slot id, which names a place in those tables).
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        for key, value in self.__dict__.items():
            if key in ("_tables", "_slot", "job_id") or key.startswith("_loc_"):
                continue
            if key not in state:
                state[key] = value
        return state

    def __setstate__(self, state):
        self.__dict__["_tables"] = None
        self.__dict__["_slot"] = -1
        for key, value in state.items():
            setattr(self, key, value)


def _num(value):
    """Python int when integral, else python float (table column read)."""
    i = int(value)
    return i if i == value else float(value)


_VIEW_TEMPLATE = """\
def fget(self):
    t = self._tables
    if t is None:
        return self.__dict__[{loc!r}]
    return {get_expr}

def fset(self, value):
    t = self._tables
    if t is None:
        self.__dict__[{loc!r}] = value
        return
    {on_set}t.{column}[self._slot] = {set_expr}
"""


def _install_table_views(cls) -> None:
    """Turn the hot Job fields into read/write views over the SoA columns.

    Each property reads/writes ``self._tables.<column>[self._slot]`` when
    the job is adopted, and plain instance storage (``_loc_<name>``)
    otherwise — the dataclass ``__init__`` routes through the setters, so
    unattached jobs behave exactly as before. Properties are *data*
    descriptors, so they also shadow the instance dict after adoption;
    getters return plain Python scalars to keep reprs, JSON emission and
    fingerprints byte-stable.

    The accessor pairs are exec-compiled per field (the namedtuple
    technique) so the column access is a real attribute opcode and reads
    go through ``ndarray.item`` — these run millions of times per
    simulation, and closure-generic ``getattr``/float() versions cost an
    extra ~50% per access.
    """
    env = {"_num": _num, "_STATES": _STATES, "_STATE_CODES": _STATE_CODES}

    def table_view(name, column, get_expr="t.{column}.item(self._slot)",
                   set_expr="value", on_set=""):
        loc = "_loc_" + name
        get_expr = get_expr.format(column=column)
        code = _VIEW_TEMPLATE.format(loc=loc, column=column,
                                     get_expr=get_expr, set_expr=set_expr,
                                     on_set=on_set)
        ns: dict = {}
        exec(compile(code, f"<table view {name}>", "exec"), env, ns)
        setattr(cls, name, property(ns["fget"], ns["fset"]))

    # ``.item()`` already yields the right Python scalar for float64,
    # int64 and bool columns; only arrival (int when integral), state
    # (enum <-> int8 code) and finish (NaN <-> None) need translation.
    table_view("arrival_time", "arrival",
               get_expr="_num(t.{column}.item(self._slot))")
    table_view("work", "work")
    table_view("deadline", "deadline",
               on_set="t.deadline_dirty = True\n    ")
    table_view("weight", "weight")
    table_view("min_parallelism", "min_par")
    table_view("max_parallelism", "max_par")
    table_view("progress", "progress")
    table_view("parallelism", "parallelism")
    # Clearing a recorded miss re-exposes the deadline to the scan.
    table_view("miss_recorded", "miss",
               on_set="if not value:\n"
                      "        t.deadline_dirty = True\n    ")
    # FINISHED/DROPPED -> PENDING/RUNNING re-enters the live set.
    table_view("state", "state",
               get_expr="_STATES[t.{column}.item(self._slot)]",
               set_expr="_STATE_CODES[value]",
               on_set="if _STATE_CODES[value] <= 1 "
                      "and t.state.item(self._slot) >= 2:\n"
                      "        t.deadline_dirty = True\n    ")
    table_view("finish_time", "finish",
               get_expr="(None if (v := t.{column}.item(self._slot)) != v "
                        "else _num(v))",  # NaN sentinel -> None
               set_expr="float('nan') if value is None else value")


_install_table_views(Job)
