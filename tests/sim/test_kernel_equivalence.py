"""Equivalence suite: the event-driven kernel vs the dense tick loop.

The contract (see :mod:`repro.sim.kernel`) is *bit-for-bit* equality of
every observable: the MetricsReport, the full event log (one TICK event
per simulated tick included), the utilization series, job progress, and
fault/energy accounting — across heuristic rosters, drop-on-miss,
fault injection, energy metering, DAG workloads, and randomized traces.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AdmissionControlScheduler,
    BackfillScheduler,
    EDFScheduler,
    FIFOScheduler,
    GreedyElasticScheduler,
    LLFScheduler,
    MigratingElasticScheduler,
    RandomScheduler,
    SJFScheduler,
    TetrisScheduler,
)
from repro.harness import get_scenario, standard_scenario
from repro.sim import (
    EnergyMeter,
    EventKernel,
    FaultInjector,
    FaultModel,
    Platform,
    PowerModel,
    Simulation,
    SimulationConfig,
    StateTables,
)
from repro.sim import soa
from repro.sim.job import Job
from repro.sim.metrics import SegmentMetrics, compute_metrics
from repro.sim.speedup import LinearSpeedup

POLICIES = {
    "fifo": lambda: FIFOScheduler(),
    "sjf": lambda: SJFScheduler(),
    "edf": lambda: EDFScheduler(),
    "llf": lambda: LLFScheduler(),
    "tetris": lambda: TetrisScheduler(),
    "random": lambda: RandomScheduler(seed=11),
    "greedy-elastic": lambda: GreedyElasticScheduler(),
    "migrating-elastic": lambda: MigratingElasticScheduler(),
    "easy-backfill": lambda: BackfillScheduler(),
    "ac-edf": lambda: AdmissionControlScheduler(EDFScheduler()),
}

SCENARIO = standard_scenario(load=0.7, horizon=60)

#: The built-in registry entries: synthetic and trace-backed.
REGISTRY_SCENARIOS = ("standard", "quick", "swf-fixture", "columnar-fixture")


def run_engine(engine, policy_factory, trace, drop_on_miss=False, horizon=2000,
               fault_models=None, fault_seed=7, power_models=None,
               platforms=SCENARIO.platforms):
    jobs = [j.clone_pending() for j in trace]
    injector = None
    if fault_models is not None:
        injector = FaultInjector(fault_models, rng=np.random.default_rng(fault_seed))
    meter = EnergyMeter(power_models) if power_models is not None else None
    sim = Simulation(
        platforms, jobs,
        SimulationConfig(drop_on_miss=drop_on_miss, horizon=horizon),
        fault_injector=injector, energy_meter=meter,
    )
    report = sim.run_policy(policy_factory(), engine=engine)
    return sim, report, list(sim.log.events)


def assert_equivalent(policy_factory, trace, **kwargs):
    s_tick, r_tick, log_tick = run_engine("tick", policy_factory, trace, **kwargs)
    s_event, r_event, log_event = run_engine("event", policy_factory, trace, **kwargs)
    assert s_tick.now == s_event.now
    assert log_tick == log_event
    assert s_tick.utilization_series == s_event.utilization_series
    assert r_tick.as_dict() == r_event.as_dict()
    # Job progress itself must match bit-for-bit (repeated-addition rule).
    for a, b in zip(s_tick._all_jobs, s_event._all_jobs):
        assert a.progress == b.progress
        assert a.finish_time == b.finish_time
        assert a.state == b.state
    return s_tick, s_event


class TestRosterEquivalence:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_randomized_trace(self, name, seed):
        assert_equivalent(POLICIES[name], SCENARIO.trace(seed))

    @pytest.mark.parametrize("name", ["edf", "tetris", "greedy-elastic"])
    def test_drop_on_miss(self, name):
        assert_equivalent(POLICIES[name], SCENARIO.trace(3), drop_on_miss=True)

    @pytest.mark.parametrize("load", [0.3, 1.2])
    def test_load_extremes(self, load):
        trace = standard_scenario(load=load, horizon=60).trace(4)
        assert_equivalent(POLICIES["edf"], trace)


class TestFaultAndEnergyEquivalence:
    FAULTS = {"cpu": FaultModel(mtbf=60.0, mttr=6.0),
              "gpu": FaultModel(mtbf=90.0, mttr=8.0)}
    POWER = {"cpu": PowerModel(0.2, 1.0), "gpu": PowerModel(0.5, 3.0)}

    @pytest.mark.parametrize("name", ["edf", "greedy-elastic"])
    def test_fault_injection(self, name):
        # The fault process draws RNG per tick, so the kernel must refuse
        # to skip — and the two engines must agree event-for-event.
        s1, s2 = assert_equivalent(POLICIES[name], SCENARIO.trace(5),
                                   fault_models=self.FAULTS)
        assert s1.fault_injector.stats.failures == s2.fault_injector.stats.failures
        assert s1.fault_injector.stats.repairs == s2.fault_injector.stats.repairs
        assert (s1.fault_injector.stats.downtime_unit_ticks
                == s2.fault_injector.stats.downtime_unit_ticks)

    def test_energy_metering(self):
        s1, s2 = assert_equivalent(POLICIES["edf"], SCENARIO.trace(6),
                                   power_models=self.POWER)
        assert s1.energy_meter.total_energy == s2.energy_meter.total_energy
        assert s1.energy_meter.power_series == s2.energy_meter.power_series
        assert s1.energy_meter.per_platform == s2.energy_meter.per_platform

    def test_energy_metering_sparse(self):
        # Energy during fast-forwarded spans must accumulate in the same
        # float order as per-tick stepping.
        trace = sparse_trace(gap=70, n=20)
        s1, s2 = assert_equivalent(POLICIES["edf"], trace, horizon=3000,
                                   power_models=self.POWER)
        assert s1.energy_meter.total_energy == s2.energy_meter.total_energy
        assert s1.energy_meter.power_series == s2.energy_meter.power_series

    def test_quiescent_injector_allows_fast_forward(self):
        # mtbf=inf draws no randomness; the kernel may skip and must
        # still match (downtime counters stay zero on both engines).
        models = {"cpu": FaultModel(mtbf=float("inf"), mttr=5.0)}
        trace = sparse_trace(gap=70, n=10)
        assert_equivalent(POLICIES["edf"], trace, horizon=1500,
                          fault_models=models)


def sparse_trace(gap=70, n=20):
    jobs, t = [], 0
    for _ in range(n):
        t += gap
        jobs.append(Job(arrival_time=t, work=20.0, deadline=t + 40.0,
                        min_parallelism=1, max_parallelism=4,
                        affinity={"cpu": 1.0, "gpu": 2.0}))
    return jobs


def large_cluster_trace(n_jobs, per_tick, work):
    """``n_jobs`` rigid unit jobs arriving ``per_tick`` per tick.

    Deterministic (no RNG), so both compute paths see the same trace.
    """
    jobs = []
    for i in range(n_jobs):
        t = i // per_tick
        jobs.append(Job(arrival_time=t, work=work, deadline=t + 3.0 * work,
                        min_parallelism=1, max_parallelism=1,
                        affinity={"cpu": 1.0, "gpu": 2.0}))
    return jobs


def integer_work_trace(seed, n_jobs=30):
    """``n_jobs`` seeded jobs of whole-number work under linear speedup.

    Base speeds are 1.0 and affinities 1.0 or 2.0, so every rate is a
    whole number and a job's progress lands exactly on its work: the
    completion tolerance alone decides the tick a job finishes on.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for t in sorted(int(a) for a in rng.integers(0, 40, size=n_jobs)):
        work = float(rng.integers(2, 40))
        jobs.append(Job(arrival_time=t, work=work, deadline=t + work,
                        min_parallelism=1,
                        max_parallelism=int(rng.integers(1, 5)),
                        speedup_model=LinearSpeedup(),
                        affinity={"cpu": 1.0, "gpu": 2.0}))
    return jobs


class TestSparseFastForward:
    def test_fast_forward_engages_and_matches(self):
        trace = sparse_trace()
        s1, s2 = assert_equivalent(POLICIES["edf"], trace, horizon=3000)
        assert s1.now == s2.now > 1000

    def test_kernel_stats_account_for_all_ticks(self):
        jobs = [j.clone_pending() for j in sparse_trace()]
        sim = Simulation(SCENARIO.platforms, jobs, SimulationConfig(horizon=3000))
        kernel = EventKernel(sim, EDFScheduler())
        kernel.run()
        assert kernel.stats.fast_forwarded > 0
        assert kernel.stats.total_ticks == sim.now
        assert len(sim.utilization_series) == sim.now
        tick_events = [e for e in sim.log.events if e.kind.value == "tick"]
        assert len(tick_events) == sim.now
        assert [e.time for e in tick_events] == list(range(1, sim.now + 1))

    def test_nonquiescent_policy_never_skips(self):
        class EveryTick(EDFScheduler):
            quiescence = "none"

        jobs = [j.clone_pending() for j in sparse_trace(n=5)]
        sim = Simulation(SCENARIO.platforms, jobs, SimulationConfig(horizon=600))
        kernel = EventKernel(sim, EveryTick())
        kernel.run()
        assert kernel.stats.fast_forwarded == 0

    def test_max_ticks_budget_respected(self):
        for engine in ("tick", "event"):
            jobs = [j.clone_pending() for j in sparse_trace()]
            sim = Simulation(SCENARIO.platforms, jobs, SimulationConfig(horizon=3000))
            sim.run_policy(EDFScheduler(), max_ticks=137, engine=engine)
            assert sim.now == 137

    def test_policy_requested_wakeup(self):
        woken = []

        class Waker(EDFScheduler):
            def next_wakeup(self, sim):
                return sim.now + 10

            def schedule(self, sim):
                woken.append(sim.now)
                super().schedule(sim)

        jobs = [j.clone_pending() for j in sparse_trace(gap=100, n=3)]
        sim = Simulation(SCENARIO.platforms, jobs, SimulationConfig(horizon=400))
        EventKernel(sim, Waker()).run()
        # Fast-forward spans may never jump past a requested wakeup tick.
        gaps = np.diff(sorted(set(woken)))
        assert gaps.max() <= 10

    def test_invalid_engine_rejected(self):
        jobs = [j.clone_pending() for j in sparse_trace(n=2)]
        sim = Simulation(SCENARIO.platforms, jobs, SimulationConfig(horizon=100))
        with pytest.raises(ValueError, match="engine"):
            sim.run_policy(EDFScheduler(), engine="warp")


class TestDAGEquivalence:
    @pytest.mark.parametrize("name", ["edf", "greedy-elastic"])
    def test_dag_simulation(self, name):
        from repro.dag import DAGWorkloadConfig
        from repro.dag.simulation import DAGSimulation
        from repro.dag.workload import generate_dag_graph

        platforms = [Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)]
        cfg = DAGWorkloadConfig()

        def run(engine):
            rng = np.random.default_rng(0)
            graphs = [generate_dag_graph(cfg, platforms, rng, i) for i in range(4)]
            sim = DAGSimulation(platforms, graphs, SimulationConfig(horizon=1500))
            report = sim.run_policy(POLICIES[name](), engine=engine)
            return sim, report

        s1, r1 = run("tick")
        s2, r2 = run("event")
        assert s1.now == s2.now
        assert s1.utilization_series == s2.utilization_series
        assert r1.as_dict() == r2.as_dict()
        assert s1.graph_miss_rate() == s2.graph_miss_rate()
        assert s1.graphs_completed() == s2.graphs_completed()
        assert [(e.time, e.kind) for e in s1.log.events] == \
               [(e.time, e.kind) for e in s2.log.events]


def _edf_at(level):
    """An EDF variant pinned to one declared quiescence level."""
    class PinnedEDF(EDFScheduler):
        quiescence = level
    PinnedEDF.__name__ = f"EDF_{level}"
    return PinnedEDF


class TestSoAObjectPathParity:
    """The SoA column paths vs the scalar loop paths.

    ``soa.pin_cutoff(0)`` sends every size-dispatched site (cluster
    advance, next-event projection) to the columns; ``pin_cutoff(inf)``
    sends every site to the loops that small simulations run by default.
    Storage is the same either way. Both paths must produce
    bit-identical observables on both engines, across quiescence levels
    and with faults/energy on.
    """

    def assert_paths_agree(self, policy_factory, trace, engine, **kwargs):
        with soa.pin_cutoff(0):
            s_vec, r_vec, log_vec = run_engine(engine, policy_factory, trace,
                                               **kwargs)
        with soa.pin_cutoff(math.inf):
            s_loop, r_loop, log_loop = run_engine(engine, policy_factory,
                                                  trace, **kwargs)
        assert s_vec.now == s_loop.now
        assert log_vec == log_loop
        assert s_vec.utilization_series == s_loop.utilization_series
        assert r_vec.as_dict() == r_loop.as_dict()
        for a, b in zip(s_vec._all_jobs, s_loop._all_jobs):
            assert a.progress == b.progress
            assert a.finish_time == b.finish_time
            assert a.state == b.state
        return s_vec, s_loop

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_roster_randomized_trace(self, name, engine):
        self.assert_paths_agree(POLICIES[name], SCENARIO.trace(8), engine)

    @pytest.mark.parametrize("level", ["none", "queue", "idle"])
    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_quiescence_levels_sparse(self, level, engine):
        # Sparse traces make the kernel's fast-forward spans long, so the
        # batched FMA accrual and span energy metering actually engage.
        self.assert_paths_agree(lambda: _edf_at(level)(), sparse_trace(),
                                engine, horizon=3000)

    @pytest.mark.parametrize("level", ["none", "queue", "idle"])
    def test_quiescence_levels_dense(self, level):
        self.assert_paths_agree(lambda: _edf_at(level)(), SCENARIO.trace(9),
                                "event")

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_faults_on(self, engine):
        s1, s2 = self.assert_paths_agree(
            POLICIES["edf"], SCENARIO.trace(10), engine,
            fault_models=TestFaultAndEnergyEquivalence.FAULTS)
        assert s1.fault_injector.stats == s2.fault_injector.stats

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_energy_on(self, engine):
        s1, s2 = self.assert_paths_agree(
            POLICIES["edf"], sparse_trace(), engine, horizon=3000,
            power_models=TestFaultAndEnergyEquivalence.POWER)
        assert s1.energy_meter.total_energy == s2.energy_meter.total_energy
        assert s1.energy_meter.power_series == s2.energy_meter.power_series
        assert s1.energy_meter.per_platform == s2.energy_meter.per_platform

    def test_faults_and_energy_with_drop(self):
        self.assert_paths_agree(
            POLICIES["greedy-elastic"], SCENARIO.trace(11), "event",
            drop_on_miss=True,
            fault_models=TestFaultAndEnergyEquivalence.FAULTS,
            power_models=TestFaultAndEnergyEquivalence.POWER)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_integer_work_exact_completion(self, seed, engine):
        # Progress equals work exactly, so both paths must apply the
        # same completion tolerance to finish a job on the same tick.
        s_vec, _ = self.assert_paths_agree(
            POLICIES["edf"], integer_work_trace(seed), engine)
        assert any(j.finish_time is not None for j in s_vec._all_jobs)

    @pytest.mark.slow
    @pytest.mark.parametrize("work", [50.0, 48.0])
    def test_large_cluster(self, work):
        # 10k unit jobs on 128 units under EDF, every one on the
        # accelerator at rate 4.0 (about 25 running at a time). At work
        # 50.0 no job's progress ever equals its work; at 48.0 every
        # job's does, so exact completion is compared too.
        platforms = [Platform("cpu", 96, 1.0), Platform("gpu", 32, 2.0)]
        self.assert_paths_agree(
            POLICIES["edf"], large_cluster_trace(10_000, 2, work), "event",
            horizon=8_000, platforms=platforms)


class TestColumnInvariants:
    """Facts both compute paths rely on, each checked against its own
    reference rather than against the other path."""

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_rate_column_tracks_rate_on(self, name):
        # Every tick, every running job's ``rate`` column must equal
        # ``rate_on`` of its live allocation, through grow, shrink,
        # migrate and fault preemption.
        jobs = [j.clone_pending() for j in SCENARIO.trace(3)]
        injector = FaultInjector(TestFaultAndEnergyEquivalence.FAULTS,
                                 rng=np.random.default_rng(7))
        sim = Simulation(SCENARIO.platforms, jobs,
                         SimulationConfig(horizon=2000),
                         fault_injector=injector)
        policy = POLICIES[name]()
        t = sim.tables

        def check():
            slots = sorted(t.running_slots().tolist())
            assert slots == sorted(a.job._slot
                                   for a in sim.cluster._allocations.values())
            for s in slots:
                job = sim.cluster.jobs[s]
                alloc = sim.cluster.allocation_of(job)
                base = sim.cluster.platforms[alloc.platform].base_speed
                assert job.parallelism == alloc.parallelism
                assert t.rate[s] == job.rate_on(alloc.platform,
                                                alloc.parallelism, base)

        while not sim.is_done():
            policy.schedule(sim)
            check()
            sim.advance_tick()
            check()
        kinds = {e.kind.value for e in sim.log.events}
        if name == "migrating-elastic":
            assert {"grow", "shrink", "migrate", "preempt"} <= kinds

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("faults", [False, True])
    def test_miss_bound_skips_nothing(self, monkeypatch, name, drop, faults):
        # A -inf bound forces the full miss scan on every tick; the
        # skipping default must log exactly the same events.
        fault_models = TestFaultAndEnergyEquivalence.FAULTS if faults else None
        _, r_skip, log_skip = run_engine("tick", POLICIES[name],
                                         SCENARIO.trace(12), drop_on_miss=drop,
                                         fault_models=fault_models)
        monkeypatch.setattr(StateTables, "min_deadline",
                            lambda self, slots: -math.inf)
        _, r_scan, log_scan = run_engine("tick", POLICIES[name],
                                         SCENARIO.trace(12), drop_on_miss=drop,
                                         fault_models=fault_models)
        assert any(e[1].value == "miss" for e in log_scan)
        assert log_skip == log_scan
        assert r_skip.as_dict() == r_scan.as_dict()

    @staticmethod
    def assert_segment_matches_records(sim, offset=0.0):
        """``sim.segment(offset)``, reduced from the columns, equals the
        columns ``SegmentMetrics.from_records`` builds from the per-job
        records, field for field and dtype for dtype."""
        segment = sim.segment(offset)
        reference = SegmentMetrics.from_records(
            sim.records(), utilization_series=sim.utilization_series,
            horizon=sim.now + offset, offset=offset)
        for f in dataclasses.fields(SegmentMetrics):
            got, want = getattr(segment, f.name), getattr(reference, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                assert np.array_equal(got, want, equal_nan=True), f.name
            else:
                assert got == want, f.name
        return reference

    @pytest.mark.parametrize("scenario", REGISTRY_SCENARIOS)
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("drop", [False, True])
    def test_segment_matches_records(self, scenario, name, drop):
        scen = get_scenario(scenario)
        sim, _, _ = run_engine("event", POLICIES[name], scen.trace(1000),
                               drop_on_miss=drop, horizon=scen.max_ticks,
                               platforms=scen.platforms)
        reference = self.assert_segment_matches_records(sim)
        assert reference.finished.any()
        assert sim.metrics() == compute_metrics(
            sim.records(), utilization_series=sim.utilization_series,
            horizon=sim.now)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("horizon", [40, 2000])
    def test_records_from_tables(self, name, horizon):
        # The records' value columns, reduced from the tables.
        # horizon=40 stops mid-trace: unarrived jobs are left out, and
        # pending and running ones are reduced unfinished.
        sim, _, _ = run_engine("event", POLICIES[name], SCENARIO.trace(13),
                               drop_on_miss=True, horizon=horizon)
        if horizon == 40:
            assert sim.num_future and sim.pending and sim.running
        reference = self.assert_segment_matches_records(sim)
        assert reference.finished.any()

    @pytest.mark.parametrize("name", ["edf", "greedy-elastic"])
    def test_records_from_tables_dag(self, name):
        from repro.dag import DAGWorkloadConfig
        from repro.dag.simulation import DAGSimulation
        from repro.dag.workload import generate_dag_graph

        platforms = [Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)]
        rng = np.random.default_rng(0)
        graphs = [generate_dag_graph(DAGWorkloadConfig(), platforms, rng, i)
                  for i in range(4)]
        sim = DAGSimulation(platforms, graphs, SimulationConfig(horizon=1500))
        sim.run_policy(POLICIES[name](), engine="event")
        reference = self.assert_segment_matches_records(sim)
        # Stage releases adopt jobs after construction.
        assert reference.n_jobs > sum(len(g.sources()) for g in graphs)

    def test_segment_with_platform_speeds_and_tiny_work(self):
        # Base speeds other than 1 scale every ideal duration, and a job
        # whose ideal duration is below 1e-9 has its slowdown clamped.
        from repro.sim.speedup import AmdahlSpeedup

        platforms = [Platform("cpu", 6, 1.5), Platform("gpu", 3, 0.5)]
        trace = [j.clone_pending() for j in SCENARIO.trace(13)]
        trace.append(Job(arrival_time=2, work=1e-12, deadline=5.0,
                         max_parallelism=2, speedup_model=AmdahlSpeedup(0.2),
                         affinity={"cpu": 1.0, "gpu": 3.0}, job_class="tiny"))
        sim, _, _ = run_engine("event", POLICIES["edf"], trace,
                               platforms=platforms)
        reference = self.assert_segment_matches_records(sim)
        tiny = reference.class_idx == reference.classes.index("tiny")
        assert reference.finished[tiny].all()

    @pytest.mark.parametrize("offset", [3, 250.0])
    def test_segment_with_a_window_offset(self, offset):
        sim, _, _ = run_engine("event", POLICIES["edf"], SCENARIO.trace(13),
                               drop_on_miss=True, horizon=40)
        reference = self.assert_segment_matches_records(sim, offset)
        assert reference.horizon == sim.now + offset


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    load=st.floats(0.2, 1.5),
    drop=st.booleans(),
    policy=st.sampled_from(["edf", "fifo", "greedy-elastic", "random"]),
)
def test_property_soa_paths_agree(seed, load, drop, policy):
    """Hypothesis: on any generated trace the SoA column path and the
    scalar loop path are bit-identical (event engine)."""
    scenario = standard_scenario(load=load, horizon=40)
    trace = scenario.trace(seed)

    def run(jobs):
        sim = Simulation(scenario.platforms, jobs,
                         SimulationConfig(drop_on_miss=drop, horizon=600))
        report = sim.run_policy(POLICIES[policy](), engine="event")
        return sim, report, list(sim.log.events)

    with soa.pin_cutoff(0):
        s_vec, r_vec, log_vec = run([j.clone_pending() for j in trace])
    with soa.pin_cutoff(math.inf):
        s_loop, r_loop, log_loop = run([j.clone_pending() for j in trace])
    assert log_vec == log_loop
    assert s_vec.utilization_series == s_loop.utilization_series
    assert r_vec.as_dict() == r_loop.as_dict()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    load=st.floats(0.2, 1.5),
    drop=st.booleans(),
    policy=st.sampled_from(["edf", "fifo", "greedy-elastic", "random"]),
)
def test_property_engines_agree(seed, load, drop, policy):
    """Hypothesis: on any generated trace the two engines are identical."""
    scenario = standard_scenario(load=load, horizon=40)
    trace = scenario.trace(seed)
    jobs_a = [j.clone_pending() for j in trace]
    jobs_b = [j.clone_pending() for j in trace]
    sim_a = Simulation(scenario.platforms, jobs_a,
                       SimulationConfig(drop_on_miss=drop, horizon=600))
    sim_b = Simulation(scenario.platforms, jobs_b,
                       SimulationConfig(drop_on_miss=drop, horizon=600))
    r_a = sim_a.run_policy(POLICIES[policy](), engine="tick")
    r_b = sim_b.run_policy(POLICIES[policy](), engine="event")
    assert sim_a.log.events == sim_b.log.events
    assert sim_a.utilization_series == sim_b.utilization_series
    assert r_a.as_dict() == r_b.as_dict()
