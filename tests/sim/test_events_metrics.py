"""Event log queries and metric computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, EventKind, EventLog, JobState, compute_metrics
from repro.sim.metrics import (
    JobRecord,
    SegmentMetrics,
    merge_segments,
    record_from_job,
)
from tests.conftest import make_job


class TestEventLog:
    def test_record_and_len(self):
        log = EventLog()
        log.record(Event(0, EventKind.ARRIVAL, job_id=1))
        log.record(Event(1, EventKind.START, job_id=1))
        assert len(log) == 2

    def test_of_kind(self):
        log = EventLog()
        log.record(Event(0, EventKind.ARRIVAL, job_id=1))
        log.record(Event(0, EventKind.ARRIVAL, job_id=2))
        log.record(Event(1, EventKind.MISS, job_id=1))
        assert len(log.of_kind(EventKind.ARRIVAL)) == 2
        assert len(log.of_kind(EventKind.MISS)) == 1
        assert log.of_kind(EventKind.FINISH) == []

    def test_for_job(self):
        log = EventLog()
        log.record(Event(0, EventKind.ARRIVAL, job_id=1))
        log.record(Event(0, EventKind.ARRIVAL, job_id=2))
        log.record(Event(3, EventKind.FINISH, job_id=1))
        events = log.for_job(1)
        assert [e.kind for e in events] == [EventKind.ARRIVAL, EventKind.FINISH]

    def test_counts(self):
        log = EventLog()
        for _ in range(3):
            log.record(Event(0, EventKind.TICK))
        assert log.counts() == {EventKind.TICK: 3}

    def test_clear(self):
        log = EventLog()
        log.record(Event(0, EventKind.TICK))
        log.clear()
        assert len(log) == 0


class TestJobRecord:
    def test_slowdown_and_jct(self):
        rec = JobRecord(job_id=1, job_class="x", arrival=0, deadline=20.0,
                        work=10.0, finish=15.0, ideal_duration=5.0,
                        missed=False, dropped=False)
        assert rec.jct == 15.0
        assert rec.slowdown == pytest.approx(3.0)
        assert rec.tardiness == 0.0

    def test_tardiness_when_late(self):
        rec = JobRecord(job_id=1, job_class="x", arrival=0, deadline=10.0,
                        work=10.0, finish=14.0, ideal_duration=5.0,
                        missed=True, dropped=False)
        assert rec.tardiness == pytest.approx(4.0)

    def test_unfinished_has_no_jct(self):
        rec = JobRecord(job_id=1, job_class="x", arrival=0, deadline=10.0,
                        work=10.0, finish=None, ideal_duration=5.0,
                        missed=True, dropped=True)
        assert rec.jct is None and rec.slowdown is None and rec.tardiness == 0.0

    def test_record_from_finished_job(self):
        job = make_job(work=8.0, deadline=50.0, affinity={"cpu": 1.0, "gpu": 2.0},
                       min_k=1, max_k=2)
        job.state = JobState.FINISHED
        job.finish_time = 10
        rec = record_from_job(job, {"cpu": 1.0, "gpu": 1.0})
        # ideal: gpu affinity 2 * k_max 2 = rate 4 => 2 ticks
        assert rec.ideal_duration == pytest.approx(2.0)
        assert not rec.missed

    def test_record_from_late_job(self):
        job = make_job(work=8.0, deadline=5.0, affinity={"cpu": 1.0})
        job.state = JobState.FINISHED
        job.finish_time = 9
        rec = record_from_job(job, {"cpu": 1.0})
        assert rec.missed and rec.tardiness == pytest.approx(4.0)

    def test_record_from_dropped_job(self):
        job = make_job(deadline=5.0)
        job.state = JobState.DROPPED
        rec = record_from_job(job, {"cpu": 1.0, "gpu": 1.0})
        assert rec.missed and rec.dropped and rec.finish is None


class TestComputeMetrics:
    def _rec(self, **kw):
        base = dict(job_id=0, job_class="a", arrival=0, deadline=10.0, work=5.0,
                    finish=8.0, ideal_duration=4.0, missed=False, dropped=False)
        base.update(kw)
        return JobRecord(**base)

    def test_empty(self):
        report = compute_metrics([])
        assert report.num_jobs == 0 and report.miss_rate == 0.0

    def test_miss_rate(self):
        recs = [self._rec(job_id=i, missed=(i < 2)) for i in range(4)]
        report = compute_metrics(recs)
        assert report.miss_rate == pytest.approx(0.5)
        assert report.num_missed == 2

    def test_mean_slowdown(self):
        recs = [self._rec(job_id=0, finish=8.0),     # slowdown 2
                self._rec(job_id=1, finish=16.0)]    # slowdown 4
        report = compute_metrics(recs)
        assert report.mean_slowdown == pytest.approx(3.0)

    def test_makespan_and_throughput(self):
        recs = [self._rec(job_id=0, finish=10.0), self._rec(job_id=1, finish=20.0)]
        report = compute_metrics(recs)
        assert report.makespan == 20.0
        assert report.throughput == pytest.approx(0.1)

    def test_per_class_breakdown(self):
        recs = [self._rec(job_id=0, job_class="tc", missed=True),
                self._rec(job_id=1, job_class="tc", missed=False),
                self._rec(job_id=2, job_class="batch", missed=False)]
        report = compute_metrics(recs)
        assert report.per_class_miss_rate["tc"] == pytest.approx(0.5)
        assert report.per_class_miss_rate["batch"] == 0.0
        flat = report.as_dict()
        assert flat["miss_rate[tc]"] == pytest.approx(0.5)

    def test_utilization_series_mean(self):
        recs = [self._rec()]
        report = compute_metrics(recs, utilization_series=[0.0, 0.5, 1.0])
        assert report.mean_utilization == pytest.approx(0.5)

    def test_horizon_extends_makespan(self):
        recs = [self._rec(finish=5.0)]
        report = compute_metrics(recs, horizon=50)
        assert report.makespan == 50.0


CLASSES = ["batch", "tc-cpu", "tc-gpu"]


@st.composite
def record(draw, job_id, classes):
    arrival = draw(st.integers(0, 100))
    deadline = float(arrival + draw(st.integers(1, 200)))
    finish = draw(st.one_of(st.none(), st.floats(0.0, 300.0)))
    if finish is not None:
        finish += arrival
    dropped = finish is None and draw(st.booleans())
    missed = ((finish is None and (dropped or draw(st.booleans())))
              or (finish is not None and finish > deadline))
    return JobRecord(job_id=job_id, job_class=draw(st.sampled_from(classes)),
                     arrival=arrival, deadline=deadline, work=1.0,
                     finish=finish,
                     ideal_duration=draw(st.floats(0.5, 50.0)),
                     missed=missed, dropped=dropped)


@st.composite
def split_stream(draw):
    """A record stream cut into 2-5 contiguous parts (some empty). Each
    part draws its classes from at most two of the three, so every part
    misses a class that others may hold."""
    parts = []
    for _ in range(draw(st.integers(2, 5))):
        classes = draw(st.lists(st.sampled_from(CLASSES), min_size=1,
                                max_size=2, unique=True))
        size = draw(st.integers(0, 6))
        records = [draw(record(job_id=i, classes=classes)) for i in range(size)]
        series = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        horizon = draw(st.one_of(st.none(), st.floats(0.0, 600.0)))
        parts.append((records, series, horizon))
    return parts


class TestMergeSegments:
    @given(split_stream())
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_contiguous_split_merges_to_the_whole(self, parts):
        """Merging the parts' segments is, float for float, merging the
        one segment of the concatenated stream."""
        segments = [SegmentMetrics.from_records(records, series, horizon)
                    for records, series, horizon in parts]
        horizons = [h for _, _, h in parts if h is not None]
        whole = SegmentMetrics.from_records(
            [r for records, _, _ in parts for r in records],
            [u for _, series, _ in parts for u in series],
            max(horizons) if horizons else None)
        assert merge_segments(segments) == merge_segments([whole])
