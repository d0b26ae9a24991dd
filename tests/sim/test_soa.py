"""SoA state tables: view write-through, adoption, exact span accrual.

Pinned properties:

* after adoption a ``Job``'s hot fields are *views*: mutating the
  object writes the column, and writing the column is visible through
  the object — in both directions, for every table-backed field;
* detached jobs (fresh, unpickled, deep-copied) behave like plain
  dataclasses, and adoption snapshots whatever state they carry;
* pickling / deep-copying an adopted job detaches the copy without
  touching the table;
* :func:`~repro.sim.soa.exact_span_total` never disagrees with the
  repeated-addition loop when it claims exactness (hypothesis-checked),
  and :func:`~repro.sim.soa.apply_span_progress` is bit-identical to
  the loop whether or not the closed form applies;
* the running set and growth machinery preserve values and order;
* the tables hold no reference back to their jobs, so a finished run
  is freed by reference counting alone.
"""

import copy
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import StateTables
from repro.sim import soa
from repro.sim.job import Job, JobState
from repro.sim.platform import Platform


def make_platforms():
    return [Platform("cpu", 16, 1.0), Platform("gpu", 6, 2.0)]


def make_job(arrival=0, work=50.0, deadline=100.0, **kw):
    kw.setdefault("affinity", {"cpu": 1.0, "gpu": 2.5})
    kw.setdefault("min_parallelism", 1)
    kw.setdefault("max_parallelism", 4)
    return Job(arrival_time=arrival, work=work, deadline=deadline, **kw)


@pytest.fixture
def tables():
    return StateTables(make_platforms())


class TestWriteThrough:
    def test_job_mutation_writes_column(self, tables):
        job = make_job()
        slot = tables.adopt(job)
        job.progress = 12.5
        job.deadline = 77.0
        job.weight = 3.0
        job.state = JobState.RUNNING
        job.miss_recorded = True
        job.finish_time = 42
        job.parallelism = 3
        assert tables.progress[slot] == 12.5
        assert tables.deadline[slot] == 77.0
        assert tables.weight[slot] == 3.0
        assert tables.state[slot] == soa.RUNNING
        assert tables.miss[slot]
        assert tables.finish[slot] == 42.0
        assert tables.parallelism[slot] == 3

    def test_column_mutation_visible_through_job(self, tables):
        job = make_job()
        slot = tables.adopt(job)
        tables.progress[slot] = 9.25
        tables.deadline[slot] = 31.0
        tables.state[slot] = soa.FINISHED
        tables.miss[slot] = True
        tables.finish[slot] = 40.0
        assert job.progress == 9.25
        assert job.deadline == 31.0
        assert job.state is JobState.FINISHED
        assert job.miss_recorded is True
        assert job.finish_time == 40
        tables.finish[slot] = np.nan
        assert job.finish_time is None

    def test_getters_return_python_scalars(self, tables):
        job = make_job(arrival=3)
        tables.adopt(job)
        job.state = JobState.FINISHED
        job.finish_time = 17
        assert type(job.arrival_time) is int
        assert type(job.work) is float
        assert type(job.progress) is float
        assert type(job.finish_time) is int
        assert type(job.miss_recorded) is bool
        assert isinstance(job.state, JobState)

    @given(
        progress=st.floats(0.0, 1e6, allow_nan=False),
        deadline=st.floats(1.0, 1e9, allow_nan=False),
        weight=st.floats(0.1, 100.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_values(self, progress, deadline, weight):
        tables = StateTables(make_platforms())
        job = make_job()
        slot = tables.adopt(job)
        job.progress = progress
        job.deadline = deadline
        job.weight = weight
        assert job.progress == progress == tables.progress[slot]
        assert job.deadline == deadline == tables.deadline[slot]
        assert job.weight == weight == tables.weight[slot]


class TestAdoption:
    def test_snapshot_of_preexisting_state(self, tables):
        job = make_job()
        job.progress = 5.5
        job.state = JobState.RUNNING
        job.miss_recorded = True
        slot = tables.adopt(job)
        assert tables.progress[slot] == 5.5
        assert tables.state[slot] == soa.RUNNING
        assert tables.miss[slot]
        assert tables.n_jobs == slot + 1
        assert job._tables is tables and job._slot == slot

    def test_affinity_matrix_and_classes(self, tables):
        a = make_job(affinity={"cpu": 1.0}, job_class="tc")
        b = make_job(affinity={"gpu": 2.0, "unknown": 3.0}, job_class="be")
        c = make_job(job_class="tc")
        sa, sb, sc = tables.adopt(a), tables.adopt(b), tables.adopt(c)
        assert tables.affinity[sa].tolist() == [1.0, 0.0]
        # platforms the cluster doesn't have are simply not represented
        assert tables.affinity[sb].tolist() == [0.0, 2.0]
        assert tables.class_names[tables.class_id[sa]] == "tc"
        assert tables.class_names[tables.class_id[sb]] == "be"
        assert tables.class_id[sc] == tables.class_id[sa]

    def test_growth_preserves_values(self, tables):
        jobs = [make_job(arrival=i, deadline=1000.0 + i, work=1.0 + i)
                for i in range(200)]   # well past _INITIAL_CAPACITY
        tables.adopt_all(jobs)
        for i, job in enumerate(jobs):
            assert job._slot == i
            assert tables.work[i] == 1.0 + i
            assert job.work == 1.0 + i
        assert tables.n_jobs == 200

    def test_readoption_copies_live_state(self, tables):
        job = make_job()
        tables.adopt(job)
        job.progress = 33.0
        other = StateTables(make_platforms())
        slot = other.adopt(job)
        assert other.progress[slot] == 33.0
        assert job._tables is other
        job.progress = 40.0
        assert other.progress[slot] == 40.0
        assert tables.progress[0] == 33.0   # old slot untouched


class TestDetachment:
    def test_fresh_job_is_detached(self):
        job = make_job()
        assert job._tables is None and job._slot == -1
        job.progress = 2.0          # plain attribute behaviour
        assert job.progress == 2.0

    @pytest.mark.parametrize("clone", [
        lambda j: pickle.loads(pickle.dumps(j)),
        copy.deepcopy,
    ])
    def test_clone_detaches_and_preserves(self, tables, clone):
        job = make_job()
        slot = tables.adopt(job)
        job.progress = 21.0
        job.state = JobState.RUNNING
        job.finish_time = None
        twin = clone(job)
        assert twin._tables is None and twin._slot == -1
        assert twin.progress == 21.0
        assert twin.state is JobState.RUNNING
        assert twin.job_id is None  # the slot id stays with the tables
        twin.progress = 99.0        # must not write through
        assert tables.progress[slot] == 21.0
        assert job.progress == 21.0


class TestRunningSet:
    def test_add_remove_swap(self, tables):
        jobs = [make_job() for _ in range(4)]
        slots = [tables.adopt(j) for j in jobs]
        for s in slots:
            tables.add_running(s)
        assert sorted(tables.running_slots().tolist()) == slots
        assert tables.running_slots_ordered().tolist() == slots
        tables.remove_running(slots[1])
        assert sorted(tables.running_slots().tolist()) == [0, 2, 3]
        # allocation order of the survivors is preserved
        assert tables.running_slots_ordered().tolist() == [0, 2, 3]
        tables.add_running(slots[1])   # re-add: now newest
        assert tables.running_slots_ordered().tolist() == [0, 2, 3, 1]

    def test_min_deadline_and_dirty_flag(self, tables):
        a = make_job(deadline=50.0)
        b = make_job(deadline=30.0)
        tables.adopt_all([a, b])
        assert tables.min_deadline([0, 1]) == 30.0
        assert tables.min_deadline([0]) == 50.0   # only the slots named
        tables.deadline_dirty = False
        a.deadline = 20.0           # lowering must raise the flag
        assert tables.deadline_dirty
        tables.deadline_dirty = False
        a.miss_recorded = True
        a.state = JobState.DROPPED
        assert tables.min_deadline([0]) == math.inf
        assert tables.min_deadline([]) == math.inf
        a.state = JobState.PENDING  # resurrection must raise the flag
        assert tables.deadline_dirty

    def test_min_deadline_paths_agree(self, tables):
        jobs = [make_job(deadline=float(100 - i)) for i in range(80)]
        tables.adopt_all(jobs)
        for job in jobs[::3]:
            job.miss_recorded = True
        for slots in ([5, 9, 40], list(range(0, 80, 2)), list(range(80))):
            with soa.pin_cutoff(math.inf):
                loop = tables.min_deadline(slots)
            with soa.pin_cutoff(0):
                assert tables.min_deadline(slots) == loop


class TestExactSpanTotal:
    @given(
        progress=st.floats(0.0, 1e9, allow_nan=False),
        rate=st.floats(0.0, 1e4, allow_nan=False),
        span=st.integers(1, 10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_disagrees_with_loop(self, progress, rate, span):
        total = soa.exact_span_total(progress, rate, span)
        if total is None:
            return
        acc = progress
        for _ in range(span):
            acc += rate
        assert total == acc

    def test_typical_simulation_values_are_exact(self):
        # Powers of two and small sums — the overwhelmingly common case.
        assert soa.exact_span_total(0.0, 1.5, 100) == 150.0
        assert soa.exact_span_total(10.0, 0.25, 7) == 11.75
        # 0.1 carries a 52-bit numerator: ten additions overflow the
        # 53-bit proof, so it (correctly) takes the fallback loop.
        assert soa.exact_span_total(0.0, 0.1, 10) is None

    def test_rejects_negative_and_extreme(self):
        assert soa.exact_span_total(-1.0, 1.0, 5) is None
        assert soa.exact_span_total(1.0, -0.5, 5) is None
        assert soa.exact_span_total(1e300, 1e300, 1 << 40) is None
        assert soa.exact_span_total(5e-324, 1.0, 2) is None   # subnormal

    @given(
        rates=st.lists(st.floats(0.01, 64.0, allow_nan=False),
                       min_size=1, max_size=8),
        span=st.integers(1, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_apply_span_progress_matches_loop(self, rates, span):
        tables = StateTables(make_platforms())
        jobs = [make_job(work=1e9, deadline=1e12) for _ in rates]
        slots = np.array([tables.adopt(j) for j in jobs], dtype=np.int64)
        for s, r in zip(slots, rates):
            tables.rate[s] = r
        expected = []
        for r in rates:
            acc = 0.0
            for _ in range(span):
                acc += r
            expected.append(acc)
        soa.apply_span_progress(tables, slots, span)
        assert tables.progress[slots].tolist() == expected


class TestObjectPathFlag:
    def test_context_manager_restores(self):
        default = soa._vector_cutoff
        assert not soa.use_vector(default - 1) and soa.use_vector(default)
        with soa.pin_cutoff(math.inf):
            assert not soa.use_vector(10**9)
            with soa.pin_cutoff(0):
                assert soa.use_vector(0)
            assert not soa.use_vector(10**9)
        assert soa._vector_cutoff == default
        with pytest.raises(RuntimeError):
            with soa.pin_cutoff(0):
                raise RuntimeError
        assert soa._vector_cutoff == default


class TestNoReferenceCycle:
    def test_finished_run_freed_without_cyclic_gc(self):
        # Jobs point at their tables; the tables must not point back, or
        # every finished run (jobs plus numpy columns) stays alive until
        # a full collection.
        from repro.baselines import baseline_roster
        from repro.harness.library import get_scenario
        from repro.sim import Simulation

        scenario = get_scenario("standard")
        gc.collect()
        gc.disable()
        try:
            trace = scenario.trace(0)
            sim = Simulation(scenario.platforms, trace)
            sim.run_policy(baseline_roster()["edf"],
                           max_ticks=scenario.max_ticks)
            tables_ref = weakref.ref(sim.tables)
            job_ref = weakref.ref(trace[0])
            del sim, trace
            assert tables_ref() is None
            assert job_ref() is None
        finally:
            gc.enable()
