"""Heuristic baselines: ordering semantics, platform/parallelism choices,
elastic pass behaviour, and relative performance sanity."""

import numpy as np
import pytest

from repro.baselines import (
    EDFScheduler,
    FIFOScheduler,
    GreedyElasticScheduler,
    HeuristicScheduler,
    LLFScheduler,
    RandomScheduler,
    SJFScheduler,
    TetrisScheduler,
    baseline_roster,
)
from repro.sim import JobState, Platform, Simulation, SimulationConfig
from repro.sim.events import EventKind
from tests.conftest import make_job


def _sim(platforms, jobs):
    return Simulation(platforms, jobs, SimulationConfig(horizon=500))


class TestOrdering:
    def test_fifo_orders_by_arrival(self, platforms):
        late_arrival = make_job(arrival=5, deadline=10.0)
        early_arrival = make_job(arrival=0, deadline=100.0)
        sim = _sim(platforms, [early_arrival, late_arrival])
        sched = FIFOScheduler()
        ordered = sched.ordered_queue(sim)
        assert ordered[0] is early_arrival

    def test_edf_orders_by_deadline(self, platforms):
        loose = make_job(arrival=0, deadline=100.0)
        tight = make_job(arrival=0, deadline=10.0)
        sim = _sim(platforms, [loose, tight])
        assert EDFScheduler().ordered_queue(sim)[0] is tight

    def test_sjf_orders_by_work(self, platforms):
        big = make_job(arrival=0, work=50.0, deadline=200.0)
        small = make_job(arrival=0, work=2.0, deadline=200.0)
        sim = _sim(platforms, [big, small])
        assert SJFScheduler().ordered_queue(sim)[0] is small

    def test_llf_orders_by_slack(self, platforms):
        # same deadline, different work => less slack for the bigger job
        big = make_job(arrival=0, work=50.0, deadline=60.0, min_k=1, max_k=1,
                       affinity={"cpu": 1.0})
        small = make_job(arrival=0, work=2.0, deadline=60.0, min_k=1, max_k=1,
                         affinity={"cpu": 1.0})
        sim = _sim(platforms, [small, big])
        assert LLFScheduler().ordered_queue(sim)[0] is big


class TestPlacement:
    def test_best_platform_maximizes_rate(self, platforms):
        job = make_job(affinity={"cpu": 1.0, "gpu": 3.0})
        sim = _sim(platforms, [job])
        sched = EDFScheduler(platform_choice="best")
        assert sched.choose_platform(sim, job) == "gpu"

    def test_blind_platform_takes_first_with_room(self, platforms):
        job = make_job(affinity={"cpu": 1.0, "gpu": 3.0})
        sim = _sim(platforms, [job])
        sched = EDFScheduler(platform_choice="blind")
        assert sched.choose_platform(sim, job) == "cpu"

    def test_no_platform_with_room_returns_none(self, platforms):
        blocker = make_job(min_k=1, max_k=8, affinity={"cpu": 1.0})
        sim = _sim(platforms, [blocker])
        sim.cluster.allocate(blocker, "cpu", 8, now=0)
        sim.pending.remove(blocker)
        gpu_blocker = make_job(min_k=1, max_k=4, affinity={"gpu": 1.0})
        sim.cluster.allocate(gpu_blocker, "gpu", 4, now=0)
        job = make_job()
        sched = EDFScheduler()
        assert sched.choose_platform(sim, job) is None

    @pytest.mark.parametrize("mode,expected", [("min", 2), ("max", 5), ("fit", 5)])
    def test_parallelism_modes(self, platforms, mode, expected):
        job = make_job(min_k=2, max_k=5)
        sim = _sim(platforms, [job])
        sched = EDFScheduler(parallelism=mode)
        assert sched.choose_parallelism(sim, job, "cpu") == expected

    def test_fit_caps_at_free_units(self, platforms):
        filler = make_job(min_k=1, max_k=8, affinity={"cpu": 1.0})
        sim = _sim(platforms, [filler])
        sim.cluster.allocate(filler, "cpu", 5, now=0)
        sim.pending.remove(filler)
        job = make_job(min_k=1, max_k=8, affinity={"cpu": 1.0})
        sched = EDFScheduler(parallelism="fit")
        assert sched.choose_parallelism(sim, job, "cpu") == 3

    def test_invalid_modes_raise(self):
        with pytest.raises(ValueError):
            EDFScheduler(platform_choice="weird")
        with pytest.raises(ValueError):
            EDFScheduler(parallelism="weird")


class TestSchedulingBehaviour:
    def test_all_schedulers_complete_light_load(self, platforms):
        for name, sched in baseline_roster().items():
            jobs = [make_job(arrival=i, work=3.0, deadline=i + 60.0,
                             min_k=1, max_k=2) for i in range(4)]
            sim = _sim(platforms, jobs)
            report = sim.run_policy(sched, max_ticks=300)
            assert report.num_finished == 4, f"{name} failed to finish jobs"

    def test_tetris_admits_under_contention(self, platforms):
        jobs = [make_job(arrival=0, work=4.0, deadline=100.0, min_k=1, max_k=2)
                for _ in range(10)]
        sim = _sim(platforms, jobs)
        TetrisScheduler().schedule(sim)
        assert len(sim.running) > 0

    def test_random_scheduler_deterministic_with_seed(self, platforms):
        def run(seed):
            jobs = [make_job(arrival=0, work=4.0, deadline=100.0, min_k=1,
                             max_k=4) for _ in range(6)]
            sim = _sim(platforms, jobs)
            RandomScheduler(seed=seed).schedule(sim)
            return sorted((j.platform, j.parallelism) for j in sim.running)

        assert run(3) == run(3)

    def test_greedy_elastic_grows_urgent_job(self, platforms):
        # One running job that will miss at k=1 but can meet at k=4.
        job = make_job(arrival=0, work=20.0, deadline=8.0,
                       affinity={"cpu": 1.0}, min_k=1, max_k=4)
        sim = _sim(platforms, [job])
        sim.cluster.allocate(job, "cpu", 1, now=0)
        sim.pending.remove(job)
        GreedyElasticScheduler().schedule(sim)
        assert job.parallelism > 1

    def test_greedy_elastic_shrinks_for_starving_job(self, platforms):
        # A fat comfortable job hogging cpu; a pending cpu-only job starving.
        fat = make_job(arrival=0, work=4.0, deadline=500.0,
                       affinity={"cpu": 1.0}, min_k=1, max_k=8)
        starving = make_job(arrival=0, work=2.0, deadline=50.0,
                            affinity={"cpu": 1.0}, min_k=2, max_k=2)
        sim = _sim(platforms, [fat, starving])
        sim.cluster.allocate(fat, "cpu", 8, now=0)
        sim.pending.remove(fat)
        GreedyElasticScheduler().schedule(sim)
        assert fat.parallelism < 8

    def test_greedy_elastic_shrinks_first_of_tied_jobs(self, platforms):
        # Two identical comfortable jobs fill cpu; the shrink pass takes
        # the first of equal slack in running order, as ``max`` does.
        first, second = (make_job(arrival=0, work=4.0, deadline=500.0,
                                  affinity={"cpu": 1.0}, min_k=1, max_k=4)
                         for _ in range(2))
        starving = make_job(arrival=0, work=2.0, deadline=50.0,
                            affinity={"cpu": 1.0}, min_k=2, max_k=2)
        sim = _sim(platforms, [first, second, starving])
        for job in (first, second):
            sim.cluster.allocate(job, "cpu", 4, now=0)
            sim.pending.remove(job)
        GreedyElasticScheduler().schedule(sim)
        shrinks = sim.log.of_kind(EventKind.SHRINK)
        assert [e.job_id for e in shrinks[:2]] == [first.job_id,
                                                   second.job_id]

    def test_roster_contains_expected_names(self):
        roster = baseline_roster()
        assert set(roster) == {"fifo", "sjf", "edf", "llf", "tetris",
                               "random", "greedy-elastic"}


class TestRelativePerformance:
    """Shape-level sanity on a contended deadline workload."""

    def _workload(self, seed):
        rng = np.random.default_rng(seed)
        jobs = []
        for _ in range(25):
            arrival = int(rng.integers(0, 20))
            jobs.append(make_job(
                arrival=arrival,
                work=float(rng.uniform(2, 15)),
                deadline=arrival + float(rng.uniform(8, 30)),
                min_k=1,
                max_k=int(rng.integers(1, 4)),
            ))
        return jobs

    def test_edf_beats_random_on_misses(self, platforms):
        edf_misses, rand_misses = [], []
        for seed in range(3):
            sim = _sim(platforms, self._workload(seed))
            edf_misses.append(sim.run_policy(EDFScheduler(), 400).miss_rate)
            sim = _sim(platforms, self._workload(seed))
            rand_misses.append(sim.run_policy(RandomScheduler(), 400).miss_rate)
        assert np.mean(edf_misses) <= np.mean(rand_misses) + 1e-9
