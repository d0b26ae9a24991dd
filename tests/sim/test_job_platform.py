"""Job model and Platform validation."""

import pytest

from repro.sim import AmdahlSpeedup, JobState, Platform
from tests.conftest import make_job


class TestPlatform:
    def test_valid(self):
        p = Platform("cpu", 8, 1.5)
        assert p.capacity == 8 and p.base_speed == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "capacity": 4},
            {"name": "x", "capacity": 0},
            {"name": "x", "capacity": 4, "base_speed": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Platform(**kwargs)


class TestJobValidation:
    def test_defaults(self):
        job = make_job()
        assert job.state is JobState.PENDING
        assert job.remaining_work == job.work
        assert not job.is_elastic or job.max_parallelism > job.min_parallelism

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival": -1},
            {"work": 0.0},
            {"deadline": 0.0, "arrival": 5},
            {"min_k": 0},
            {"min_k": 4, "max_k": 2},
            {"affinity": {}},
            {"affinity": {"cpu": 0.0}},
            {"weight": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            make_job(**kwargs)

    def test_unique_ids(self):
        """Ids are slots: unique within the simulation holding the jobs,
        and absent while none does."""
        from repro.sim import Simulation

        jobs = [make_job(), make_job()]
        assert [j.job_id for j in jobs] == [None, None]
        Simulation([Platform("cpu", 4), Platform("gpu", 2)], jobs)
        assert [j.job_id for j in jobs] == [0, 1]


class TestJobIdentity:
    """Jobs compare by identity: queue removal must take out the exact
    object, never a field-for-field twin."""

    def twins(self):
        from repro.sim import Job

        a = make_job(arrival=3, work=4.0, deadline=20.0)
        b = Job(arrival_time=a.arrival_time, work=a.work,
                deadline=a.deadline, min_parallelism=a.min_parallelism,
                max_parallelism=a.max_parallelism,
                speedup_model=a.speedup_model, affinity=dict(a.affinity),
                job_class=a.job_class, weight=a.weight)
        return a, b

    def test_equal_fields_compare_unequal(self):
        a, b = self.twins()
        assert a == a
        assert a != b and not (a == b)

    def test_hashable_by_identity(self):
        a, b = self.twins()
        assert len({a, b, a}) == 2

    def test_list_remove_takes_the_exact_object(self):
        a, b = self.twins()
        queue = [b, a]
        queue.remove(a)
        assert len(queue) == 1 and queue[0] is b


class TestJobDerived:
    def test_rate_linear(self):
        job = make_job(affinity={"cpu": 2.0})
        assert job.rate_on("cpu", 3) == pytest.approx(6.0)

    def test_rate_with_base_speed(self):
        job = make_job(affinity={"cpu": 2.0})
        assert job.rate_on("cpu", 2, base_speed=1.5) == pytest.approx(6.0)

    def test_rate_amdahl(self):
        job = make_job(affinity={"cpu": 1.0}, speedup=AmdahlSpeedup(0.5))
        assert job.rate_on("cpu", 2) == pytest.approx(4.0 / 3.0)

    def test_rate_unrunnable_platform_raises(self):
        job = make_job(affinity={"cpu": 1.0})
        with pytest.raises(ValueError):
            job.rate_on("gpu", 1)

    def test_best_case_duration(self):
        job = make_job(work=12.0, affinity={"cpu": 1.0}, min_k=1, max_k=4)
        assert job.best_case_duration("cpu") == pytest.approx(3.0)

    def test_slack_positive_when_loose(self):
        job = make_job(work=4.0, deadline=100.0, affinity={"cpu": 1.0}, max_k=4)
        assert job.slack(0.0, "cpu") == pytest.approx(99.0)

    def test_slack_negative_when_impossible(self):
        job = make_job(work=100.0, deadline=5.0, affinity={"cpu": 1.0}, min_k=1, max_k=1)
        assert job.slack(0.0, "cpu") < 0

    def test_slack_defaults_to_best_affinity_platform(self):
        job = make_job(work=8.0, deadline=100.0, affinity={"cpu": 1.0, "gpu": 4.0}, max_k=2)
        # best platform = gpu: duration 8 / (4*2) = 1
        assert job.slack(0.0) == pytest.approx(99.0)

    def test_deadline_met(self):
        job = make_job(deadline=10.0)
        assert not job.deadline_met()
        job.finish_time = 10
        assert job.deadline_met()
        job.finish_time = 11
        assert not job.deadline_met()

    def test_remaining_work_clamps_at_zero(self):
        job = make_job(work=5.0)
        job.progress = 7.0
        assert job.remaining_work == 0.0
