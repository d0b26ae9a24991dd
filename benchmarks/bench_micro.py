"""Hot-path microbenchmarks (true pytest-benchmark timing loops).

These are the perf-regression guards the HPC-Python guide asks for:
profile-informed benchmarks of the code the experiment sweeps spend
their time in — NN forward/backward, state encoding, action masking,
and the simulator tick.

Run as a script (``python benchmarks/bench_micro.py``) to execute the
tick-vs-event kernel comparison and the batched-vs-serial rollout
comparison and record the results to ``BENCH_kernel.json`` at the repo
root (what CI's smoke step does).
"""

import json
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import CoreConfig
from repro.core.actions import SchedulingActionSpace
from repro.core.state import StateEncoder
from repro.core.training import clone_job
from repro.harness import standard_scenario
from repro.nn import Adam, CrossEntropyLoss, mlp
from repro.rl.policies import CategoricalPolicy
from repro.sim import Simulation, SimulationConfig
from repro.sim.job import Job
from repro.baselines import EDFScheduler


@pytest.fixture(scope="module")
def loaded_sim():
    """A mid-episode simulation with pending and running jobs."""
    scenario = standard_scenario(load=0.9, horizon=40,
                                 core=CoreConfig(queue_slots=8,
                                                 running_slots=8, horizon=20))
    sim = Simulation(scenario.platforms, scenario.trace(1000),
                     SimulationConfig(horizon=500))
    sched = EDFScheduler()
    for _ in range(15):
        sched.schedule(sim)
        sim.advance_tick()
    return scenario, sim


def test_nn_forward_batch(benchmark):
    rng = np.random.default_rng(0)
    net = mlp([256, 128, 128, 64], rng)
    x = rng.normal(size=(128, 256))
    benchmark(net.forward, x)


def test_nn_forward_backward_step(benchmark):
    rng = np.random.default_rng(0)
    net = mlp([256, 128, 128, 64], rng)
    opt = Adam(net.params(), net.grads(), lr=1e-3)
    loss_fn = CrossEntropyLoss()
    x = rng.normal(size=(128, 256))
    y = rng.integers(0, 64, size=128)

    def step():
        net.zero_grad()
        _, grad = loss_fn(net.forward(x), y)
        net.backward(grad)
        opt.step()

    benchmark(step)


def test_state_encode(benchmark, loaded_sim):
    scenario, sim = loaded_sim
    encoder = StateEncoder(scenario.core,
                           [p.name for p in scenario.platforms])
    benchmark(encoder.encode, sim)


def test_action_mask(benchmark, loaded_sim):
    scenario, sim = loaded_sim
    space = SchedulingActionSpace(scenario.core,
                                  [p.name for p in scenario.platforms])
    benchmark(space.mask, sim)


def test_policy_act(benchmark, loaded_sim):
    scenario, sim = loaded_sim
    encoder = StateEncoder(scenario.core,
                           [p.name for p in scenario.platforms])
    space = SchedulingActionSpace(scenario.core,
                                  [p.name for p in scenario.platforms])
    policy = CategoricalPolicy.for_sizes(encoder.obs_dim, space.n, (128, 128),
                                         np.random.default_rng(0))
    obs = encoder.encode(sim)
    mask = space.mask(sim)
    rng = np.random.default_rng(1)
    benchmark(policy.act, obs, rng, mask)


def test_sim_tick_under_edf(benchmark):
    scenario = standard_scenario(load=0.9, horizon=40)
    sched = EDFScheduler()

    def run_episode():
        sim = Simulation(scenario.platforms, scenario.trace(1000),
                         SimulationConfig(horizon=300))
        while not sim.is_done():
            sched.schedule(sim)
            sim.advance_tick()
        return sim.now

    benchmark(run_episode)


def test_prioritized_replay_sample(benchmark):
    from repro.rl import PrioritizedReplayBuffer

    rng = np.random.default_rng(0)
    buf = PrioritizedReplayBuffer(50_000, 144, 49)
    obs = rng.normal(size=144)
    for i in range(20_000):
        buf.add(obs, i % 49, float(i % 7), obs, False,
                np.ones(49, dtype=bool))
    buf.update_priorities(np.arange(20_000),
                          rng.uniform(0.1, 5.0, size=20_000))
    benchmark(buf.sample, 64, rng)


def test_dag_critical_path(benchmark):
    from repro.dag import DAGWorkloadConfig
    from repro.dag.workload import generate_dag_graph
    from repro.sim import Platform

    platforms = [Platform("cpu", 16, 1.0), Platform("gpu", 6, 1.0)]
    cfg = DAGWorkloadConfig(stages_range=(12, 16), layers_range=(4, 6))
    graph = generate_dag_graph(cfg, platforms, np.random.default_rng(0), 0)

    def cp():
        graph._downstream_cp = None      # defeat the cache: measure the DP
        return graph.critical_path_length(platforms)

    benchmark(cp)


# --- trace ingestion throughput ---------------------------------------------

def test_ingest_swf_fixture(benchmark):
    """Parse + normalize the bundled SWF fixture (the import hot path)."""
    from repro.sim import Platform
    from repro.workload.ingest import IngestConfig, normalize_records, parse_swf, swf_fixture_path

    platforms = [Platform("cpu", 24, 1.0), Platform("gpu", 8, 1.0)]
    config = IngestConfig(tick_seconds=120.0, target_load=0.8)

    def ingest():
        _, records = parse_swf(swf_fixture_path())
        return normalize_records(records, config, platforms)

    jobs = benchmark(ingest)
    assert jobs


def _bench_ingest(reps: int = 30) -> dict:
    """Jobs/sec through parse + normalize of both bundled fixtures.

    Parsing and normalizing are timed separately so a regression in
    either stage is attributable; rates are jobs per second of the
    combined pipeline (what ``trace import`` pays per job).
    """
    from repro.sim import Platform
    from repro.workload.ingest import (
        ALIBABA_LIKE_SPEC,
        IngestConfig,
        normalize_records,
        parse_columnar,
        parse_swf,
        columnar_fixture_path,
        swf_fixture_path,
    )

    platforms = [Platform("cpu", 24, 1.0), Platform("gpu", 8, 1.0)]
    config = IngestConfig(tick_seconds=120.0, target_load=0.8)

    def one(parse, path, *parse_args):
        parse_times, norm_times, n_jobs = [], [], 0
        for _ in range(reps):
            t0 = time.perf_counter()
            _, records = parse(path, *parse_args)
            t1 = time.perf_counter()
            jobs = normalize_records(records, config, platforms)
            t2 = time.perf_counter()
            parse_times.append(t1 - t0)
            norm_times.append(t2 - t1)
            n_jobs = len(jobs)
        t_parse = statistics.median(parse_times)
        t_norm = statistics.median(norm_times)
        return {
            "jobs": n_jobs,
            "parse_ms": round(t_parse * 1e3, 3),
            "normalize_ms": round(t_norm * 1e3, 3),
            "jobs_per_sec": round(n_jobs / (t_parse + t_norm)),
        }

    return {
        "swf_fixture": one(parse_swf, swf_fixture_path()),
        "columnar_fixture": one(parse_columnar, columnar_fixture_path(),
                                ALIBABA_LIKE_SPEC),
    }


def write_synthetic_swf(path, n_rows: int = 40_000, seed: int = 0) -> None:
    """Generate a submit-time-sorted SWF log of ``n_rows`` jobs.

    Deterministic given ``seed``; what the archive-scale ingest bench
    and the CI memory-cap smoke run against (the bundled fixture is only
    80 rows — far too small to exercise bounded-memory ingestion).
    """
    rng = np.random.default_rng(seed)
    submit = np.cumsum(rng.exponential(30.0, size=n_rows)).astype(int)
    run = np.maximum(1, rng.lognormal(5.5, 1.2, size=n_rows)).astype(int)
    procs = 2 ** rng.integers(0, 6, size=n_rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("; Version: 2.2\n; Computer: synthetic bench archive\n")
        fh.write(f"; MaxJobs: {n_rows}\n; MaxProcs: 64\n")
        for i in range(n_rows):
            fh.write(f"{i + 1} {submit[i]} 10 {run[i]} {procs[i]} -1 -1 "
                     f"{procs[i]} {run[i] * 2} -1 1 1 1 -1 1 1 -1 -1\n")


def _bench_ingest_archive(n_rows: int = 40_000, reps: int = 3) -> dict:
    """Streamed vs materialized normalization of an archive-scale SWF.

    The acceptance numbers of the streaming path: jobs/s within 2x of
    the materialized path, peak traced memory bounded (no full-record
    materialization), and byte-identical payloads. Memory is measured
    with ``tracemalloc`` on a separate (slower) run so the throughput
    numbers stay untainted.
    """
    import tempfile
    import tracemalloc

    from repro.sim import Platform
    from repro.workload.ingest import (
        IngestConfig,
        normalize_records,
        parse_swf,
        stream_normalize_swf,
    )
    from repro.workload.traces import trace_payload

    platforms = [Platform("cpu", 24, 1.0), Platform("gpu", 8, 1.0)]
    config = IngestConfig(tick_seconds=60.0, target_load=0.8)

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "bench.swf")
        write_synthetic_swf(path, n_rows)

        def materialized():
            _, records = parse_swf(path)
            return normalize_records(records, config, platforms)

        def streamed_count():
            n = 0
            for _ in stream_normalize_swf(path, config, platforms):
                n += 1
            return n

        # Payload equality (once; materializes the streamed jobs).
        mat_jobs = materialized()
        identical = trace_payload(mat_jobs) == trace_payload(
            stream_normalize_swf(path, config, platforms))
        n_jobs = len(mat_jobs)
        del mat_jobs

        t_mat = [0.0] * reps
        t_st = [0.0] * reps
        for i in range(reps):      # interleave so drift biases neither
            t0 = time.perf_counter()
            materialized()
            t_mat[i] = time.perf_counter() - t0
            t0 = time.perf_counter()
            streamed_count()
            t_st[i] = time.perf_counter() - t0
        mat_s = statistics.median(t_mat)
        st_s = statistics.median(t_st)

        def traced_peak(fn) -> float:
            tracemalloc.start()
            fn()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak / (1024 * 1024)

        peak_mat = traced_peak(materialized)
        peak_st = traced_peak(streamed_count)

    return {
        "archive_rows": n_rows,
        "jobs": n_jobs,
        "materialized": {"s": round(mat_s, 3),
                         "jobs_per_sec": round(n_jobs / mat_s),
                         "peak_traced_mb": round(peak_mat, 2)},
        "streamed": {"s": round(st_s, 3),
                     "jobs_per_sec": round(n_jobs / st_s),
                     "peak_traced_mb": round(peak_st, 2)},
        "streamed_vs_materialized_throughput": round(mat_s / st_s, 3),
        "peak_memory_ratio": round(peak_st / max(peak_mat, 1e-9), 3),
        "payload_identical": identical,
    }


# --- tick vs event kernel / batched vs serial rollouts -----------------------

def sparse_trace(gap: int = 120, n: int = 50):
    """Long-horizon trace with arrival gaps >= 50 ticks (mostly idle)."""
    jobs, t = [], 0
    for _ in range(n):
        t += gap
        jobs.append(Job(arrival_time=t, work=20.0, deadline=t + 40.0,
                        min_parallelism=1, max_parallelism=4,
                        affinity={"cpu": 1.0, "gpu": 2.0}))
    return jobs


def _run_sparse(engine: str, gap: int = 120, n: int = 50,
                horizon: int = 8000) -> float:
    scenario = standard_scenario(load=0.7, horizon=60)
    jobs = [clone_job(j) for j in sparse_trace(gap, n)]
    t0 = time.perf_counter()
    sim = Simulation(scenario.platforms, jobs, SimulationConfig(horizon=horizon))
    sim.run_policy(EDFScheduler(), engine=engine)
    return time.perf_counter() - t0


@pytest.mark.parametrize("engine", ["tick", "event"])
def test_sparse_trace_engine(benchmark, engine):
    """The event kernel must fast-forward the idle gaps the tick loop walks."""
    scenario = standard_scenario(load=0.7, horizon=60)

    def run():
        jobs = [clone_job(j) for j in sparse_trace()]
        sim = Simulation(scenario.platforms, jobs, SimulationConfig(horizon=8000))
        sim.run_policy(EDFScheduler(), engine=engine)
        return sim.now

    benchmark(run)


def _bench_kernel(gap: int = 120, reps: int = 9) -> dict:
    tick = [_run_sparse("tick", gap) for _ in range(reps)]
    event = [_run_sparse("event", gap) for _ in range(reps)]
    t, e = statistics.median(tick), statistics.median(event)
    return {
        "trace": {"arrival_gap_ticks": gap, "jobs": 50, "policy": "edf"},
        "tick_ms": round(t * 1e3, 2),
        "event_ms": round(e * 1e3, 2),
        "speedup": round(t / e, 2),
    }


# --- SoA large-cluster benchmark / parity check ------------------------------

def large_cluster_platforms(scale: int = 16):
    """A two-platform cluster of ``128 * scale`` units (96/32 split)."""
    from repro.sim import Platform

    return [Platform("cpu", 96 * scale, 1.0), Platform("gpu", 32 * scale, 2.0)]


def large_cluster_trace(n_jobs: int, per_tick: int, work: float = 400.0):
    """``n_jobs`` rigid unit jobs arriving ``per_tick`` per tick.

    Sized so the steady-state running set nearly fills the cluster — the
    regime where per-job Python loops dominate the loop-path kernel.
    Deterministic (no RNG): the column and loop paths must see the exact
    same trace.
    """
    jobs = []
    for i in range(n_jobs):
        t = i // per_tick
        jobs.append(Job(arrival_time=t, work=work, deadline=t + 3.0 * work,
                        min_parallelism=1, max_parallelism=1,
                        affinity={"cpu": 1.0, "gpu": 2.0}))
    return jobs


def _run_large_cluster(trace, platforms, horizon: int,
                       vectorized: bool) -> tuple:
    """One event-kernel run; returns (seconds, sim) for parity checks.

    The cutoff is pinned to 0 (every size-dispatched site on the
    columns, even through the sparse ramp-up/drain phases) or to
    infinity (every site on the scalar loops).
    """
    from repro.sim import soa

    jobs = [clone_job(j) for j in trace]
    with soa.pin_cutoff(0 if vectorized else math.inf):
        t0 = time.perf_counter()
        sim = Simulation(platforms, jobs, SimulationConfig(horizon=horizon))
        sim.run_policy(EDFScheduler(), engine="event")
        return time.perf_counter() - t0, sim


def _bench_kernel_large_cluster(n_jobs: int = 100_000, scale: int = 64,
                                per_tick: int = 5, horizon: int = 30_000,
                                vector_reps: int = 3,
                                work: float = 1600.0) -> dict:
    """SoA column kernel vs loop-path kernel at e10 scale.

    8192 units (1k+ nodes) under a ~6000-job steady-state running set,
    100k jobs end to end. Long jobs at a low arrival rate keep the
    per-tick cost dominated by the running-set loops the SoA refactor
    vectorized, not by the per-job allocate/release work both paths
    share. The loop path is timed once — it is the slow side, and one
    rep of a minutes-long deterministic run is a stable denominator.
    """
    platforms = large_cluster_platforms(scale)
    trace = large_cluster_trace(n_jobs, per_tick, work=work)
    vec_times = []
    sim_vec = None
    for _ in range(vector_reps):
        dt, sim_vec = _run_large_cluster(trace, platforms, horizon, True)
        vec_times.append(dt)
    loop_time, sim_loop = _run_large_cluster(trace, platforms, horizon, False)
    vec_s = statistics.median(vec_times)
    # Cheap cross-check that both paths simulated the same system.
    assert sim_vec.now == sim_loop.now
    assert sim_vec.utilization_series == sim_loop.utilization_series
    return {
        "cluster": {"platforms": len(platforms),
                    "units": sum(p.capacity for p in platforms),
                    "jobs": n_jobs, "policy": "edf",
                    "arrivals_per_tick": per_tick},
        "simulated_ticks": sim_vec.now,
        "soa_s": round(vec_s, 3),
        "loop_s": round(loop_time, 3),
        "speedup": round(loop_time / vec_s, 2),
    }


def kernel_parity_check(n_jobs: int = 10_000, scale: int = 1,
                        per_tick: int = 2, work: float = 50.0,
                        horizon: int = 8_000) -> bool:
    """Scaled-down (128-unit, 10k-job) column-vs-loop parity gate for CI.

    Runs the event kernel on the same deterministic trace with every
    size-dispatched site on the columns, then on the loops, and demands
    bit-identical observables: normalized event log, utilization series,
    and MetricsReport.
    """
    platforms = large_cluster_platforms(scale)
    trace = large_cluster_trace(n_jobs, per_tick, work=work)

    def observables(sim, jobs):
        id_map = {j.job_id: i for i, j in enumerate(jobs)}
        log = [(e.time, e.kind,
                None if e.job_id is None else id_map.get(e.job_id, e.job_id),
                e.platform, e.parallelism, e.detail)
               for e in sim.log.events]
        return log, sim.utilization_series, sim.metrics().as_dict()

    _, sim_vec = _run_large_cluster(trace, platforms, horizon, True)
    vec_obs = observables(sim_vec, sim_vec._all_jobs)
    _, sim_loop = _run_large_cluster(trace, platforms, horizon, False)
    loop_obs = observables(sim_loop, sim_loop._all_jobs)
    ok = vec_obs == loop_obs
    print(f"kernel SoA parity ({sum(p.capacity for p in platforms)} units, "
          f"{n_jobs} jobs, {sim_vec.now} ticks): "
          f"{'PASS' if ok else 'FAIL'}")
    if not ok:
        for name, a, b in zip(("event log", "utilization", "metrics"),
                              vec_obs, loop_obs):
            if a != b:
                print(f"  divergent: {name}")
    return ok


def _bench_rollout(hidden, episodes: int = 16, num_envs: int = 8,
                   reps: int = 5) -> dict:
    from repro.rl import VecEnv
    from repro.rl.ppo import PPOAgent, PPOConfig
    from repro.rl.rollout import RolloutBuffer, collect_vec_episodes

    scenario = standard_scenario(load=0.7)
    # Replay-mode environments over fixed traces: serial and batched
    # collection work through the *same* episode workloads, which keeps
    # the comparison paired instead of sampling different traces per rep.
    traces = scenario.traces(episodes)
    env = scenario.eval_env(traces, seed=0)
    agent = PPOAgent(env.encoder.obs_dim, env.actions.n,
                     PPOConfig(hidden=tuple(hidden)), np.random.default_rng(0))

    def serial():
        buf = RolloutBuffer()
        t0 = time.perf_counter()
        for _ in range(episodes):
            agent.collect_episode(env, buf, 5000)
        return time.perf_counter() - t0, len(buf)

    def batched():
        vec = VecEnv.from_env(env, num_envs, base_seed=50)
        buf = RolloutBuffer()
        t0 = time.perf_counter()
        collect_vec_episodes(agent, vec, buf, episodes=episodes, max_steps=5000)
        return time.perf_counter() - t0, len(buf)

    serial(); batched()  # warm caches and allocator
    # Interleave the two sides so machine-load drift biases neither.
    serial_runs, batched_runs = [], []
    for _ in range(reps):
        serial_runs.append(serial())
        batched_runs.append(batched())
    t_serial, n_serial = min(serial_runs)
    t_batched, n_batched = min(batched_runs)
    return {
        "policy_hidden": list(hidden),
        "episodes": episodes,
        "num_envs": num_envs,
        "serial_ms": round(t_serial * 1e3, 1),
        "vec_ms": round(t_batched * 1e3, 1),
        "serial_us_per_step": round(t_serial / n_serial * 1e6, 1),
        "vec_us_per_step": round(t_batched / n_batched * 1e6, 1),
        "speedup": round(t_serial / t_batched, 2),
    }


def test_vec_rollout_beats_serial(benchmark):
    """Smoke: batched collection of 4 episodes through VecEnv(4)."""
    from repro.rl import VecEnv
    from repro.rl.a2c import A2CAgent, A2CConfig
    from repro.rl.rollout import RolloutBuffer, collect_vec_episodes

    scenario = standard_scenario(load=0.7)
    env = scenario.train_env(seed=0)
    agent = A2CAgent(env.encoder.obs_dim, env.actions.n, A2CConfig(),
                     np.random.default_rng(0))
    vec = VecEnv.from_env(env, 4, base_seed=50)

    def run():
        buf = RolloutBuffer()
        return collect_vec_episodes(agent, vec, buf, episodes=4, max_steps=5000)

    benchmark(run)


def _bench_parallel_sweep(workers: int = 4, n_traces: int = 3) -> dict:
    """Serial vs sharded vs warm-cache wall clock of one evaluation sweep.

    The sweep is sized so each (scenario, scheduler, trace) cell costs
    ~0.5-1 s of simulation — enough that process startup amortizes. Three
    timings are recorded: the serial path, the ``workers``-sharded path
    (real parallelism requires real cores; ``cpu_count`` is recorded so
    the ratio is interpretable), and a warm-cache re-run, which replays
    every cell from disk regardless of core count.
    """
    import os
    import tempfile

    from repro.harness.cache import ResultCache
    from repro.harness.parallel import BaselineFactory
    from repro.harness.sweeps import sweep_schedulers

    scenarios = {
        f"load-{load:g}": standard_scenario(
            load=load, horizon=500, cpu_capacity=48, gpu_capacity=16,
            max_ticks=2000)
        for load in (0.8, 1.1)
    }
    schedulers = {
        name: BaselineFactory(name)
        for name in ("fifo", "edf", "tetris", "greedy-elastic")
    }
    common = dict(n_traces=n_traces, base_seed=1000)

    t0 = time.perf_counter()
    rows_serial = sweep_schedulers(scenarios, schedulers, **common)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows_parallel = sweep_schedulers(scenarios, schedulers, workers=workers,
                                     **common)
    t_parallel = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        sweep_schedulers(scenarios, schedulers, cache=cache, **common)
        t0 = time.perf_counter()
        rows_cached = sweep_schedulers(scenarios, schedulers, cache=cache,
                                       **common)
        t_warm = time.perf_counter() - t0
        cold_misses = cache.stats["misses"]
        warm_hits = cache.stats["hits"]

    identical = (
        json.dumps(rows_serial, sort_keys=True)
        == json.dumps(rows_parallel, sort_keys=True)
        == json.dumps(rows_cached, sort_keys=True)
    )
    n_cells = len(scenarios) * len(schedulers) * n_traces
    from repro.harness.executor import available_cpus

    return {
        "sweep": {"scenarios": sorted(scenarios), "schedulers": sorted(schedulers),
                  "n_traces": n_traces, "cells": n_cells},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": available_cpus(),
        "workers": workers,
        "serial_s": round(t_serial, 2),
        "parallel_s": round(t_parallel, 2),
        "parallel_speedup": round(t_serial / t_parallel, 2),
        "warm_cache_s": round(t_warm, 2),
        "warm_cache_speedup": round(t_serial / t_warm, 2),
        "cache_cold_misses": cold_misses,
        "cache_warm_hits": warm_hits,
        "rows_byte_identical": identical,
    }


def _bench_windowed(n_jobs: int = 4000, window_jobs: int = 500,
                    scale: int = 2, per_tick: int = 4,
                    work: float = 60.0) -> dict:
    """Windowed segment evaluation vs monolithic: exactness + memory.

    The same deterministic sharded archive is evaluated three ways with
    the event kernel under EDF: monolithically (``FixedTraceScenario``
    materializes every job), as one whole-container window (must equal
    the monolithic report float for float — the clock re-base is the
    identity when the first arrival is 0), and as ``window_jobs``-sized
    segments reduced with ``merge_segments``. Peak traced allocations of
    the segmented pass are bounded by the window size, not the archive.
    """
    import os
    import tempfile
    import tracemalloc

    from repro.core.training import evaluate_scheduler_runs
    from repro.harness.library import FixedTraceScenario, plan_trace_windows
    from repro.sim.metrics import compute_metrics, merge_segments
    from repro.workload.traces import save_trace_shards

    platforms = large_cluster_platforms(scale)
    trace = large_cluster_trace(n_jobs, per_tick, work=work)

    def windowed_pass(size):
        windows = plan_trace_windows(shard_dir, size, platforms=platforms,
                                     engine="event")
        segs = [w.evaluate_segment(EDFScheduler(), 0) for w in windows]
        return merge_segments(segs), len(windows)

    def timed_peak(fn):
        tracemalloc.start()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return out, dt, peak

    with tempfile.TemporaryDirectory() as tmp:
        shard_dir = os.path.join(tmp, "shards")
        save_trace_shards(iter(trace), shard_dir, jobs_per_shard=window_jobs)

        def monolithic():
            scenario = FixedTraceScenario.from_file(
                shard_dir, platforms=platforms, engine="event")
            sim = evaluate_scheduler_runs(
                EDFScheduler(), scenario.platforms, [scenario.trace(0)],
                max_ticks=scenario.max_ticks, engine="event")[0]
            return compute_metrics(sim.records(),
                                   utilization_series=sim.utilization_series,
                                   horizon=sim.now)

        mono, mono_t, mono_peak = timed_peak(monolithic)
        (one_window, _), _, _ = timed_peak(lambda: windowed_pass(n_jobs))
        (merged, n_windows), win_t, win_peak = timed_peak(
            lambda: windowed_pass(window_jobs))

    return {
        "archive": {"jobs": n_jobs, "window_jobs": window_jobs,
                    "windows": n_windows, "policy": "edf",
                    "engine": "event",
                    "units": sum(p.capacity for p in platforms)},
        "monolithic_s": round(mono_t, 2),
        "windowed_s": round(win_t, 2),
        "monolithic_peak_mb": round(mono_peak / 1e6, 1),
        "windowed_peak_mb": round(win_peak / 1e6, 1),
        "peak_memory_ratio": round(mono_peak / max(win_peak, 1), 2),
        "single_window_equals_monolithic": one_window == mono,
        "windowed_num_jobs": merged.num_jobs,
    }


def _bench_serve(policies=("fifo", "greedy-elastic"), seed: int = 1000) -> dict:
    """Serving-path cost: µs per decision pass, sustained jobs/s.

    Drives :class:`~repro.serve.service.SchedulerService` in-process
    (no socket) on the quick scenario: every job submitted one at a
    time exactly as the replay client would, then drained. The latency
    percentiles come from the service's own recorder — the same numbers
    ``repro.cli serve`` reports over the ``stats`` op — and the
    byte-identity bit re-checks the serving invariant against the batch
    reference as a correctness gate, not just a timing.
    """
    from repro.baselines import baseline_roster
    from repro.harness.library import get_scenario
    from repro.serve import (SchedulerService, batch_reference,
                             dumps_metrics, trace_payloads)

    scenario = get_scenario("quick")
    payloads = trace_payloads(scenario.trace(seed))
    out = {"scenario": "quick", "jobs": len(payloads),
           "max_ticks": scenario.max_ticks, "policies": {}}
    for name in policies:
        service = SchedulerService(
            scenario.platforms, dict(baseline_roster())[name],
            max_ticks=scenario.max_ticks, policy_desc=name)
        t0 = time.perf_counter()
        for i, payload in enumerate(payloads):
            service.submit(payload, index=i)
        drained = service.drain()
        wall = time.perf_counter() - t0
        reference = batch_reference(
            scenario.platforms, payloads, dict(baseline_roster())[name],
            max_ticks=scenario.max_ticks)
        latency = service.stats()["latency"]
        out["policies"][name] = {
            "decision_p50_us": round(latency["p50_us"], 1),
            "decision_p99_us": round(latency["p99_us"], 1),
            "decision_passes": latency["decisions"],
            "sustained_jobs_per_s": round(len(payloads) / wall, 1),
            "wall_s": round(wall, 3),
            "served_equals_batch": dumps_metrics(drained["metrics"])
                                   == reference,
        }
    return out


def main(argv=None) -> int:
    """Record the kernel/rollout comparisons to BENCH_kernel.json, the
    ingestion throughput to BENCH_ingest.json, and the parallel-sweep
    comparison to BENCH_parallel.json (``--skip-parallel`` to leave the
    latter untouched)."""
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--skip-parallel", action="store_true",
                        help="only run the kernel/rollout/ingest benchmarks")
    parser.add_argument("--ingest-only", action="store_true",
                        help="only run the ingest benchmarks "
                             "(BENCH_ingest.json)")
    parser.add_argument("--parity-check", action="store_true",
                        help="run only the scaled-down column-vs-loop "
                             "kernel parity gate (what CI smoke runs)")
    args = parser.parse_args(argv)

    if args.parity_check:
        return 0 if kernel_parity_check() else 1

    root = Path(__file__).resolve().parent.parent

    ingest = {"trace_ingest": _bench_ingest(),
              "archive_stream": _bench_ingest_archive()}
    out_ingest = root / "BENCH_ingest.json"
    out_ingest.write_text(json.dumps(ingest, indent=2) + "\n")
    print(json.dumps(ingest, indent=2))
    arc = ingest["archive_stream"]
    stream_ok = arc["streamed_vs_materialized_throughput"] >= 0.5
    print(f"streamed ingest within 2x of materialized: "
          f"{'PASS' if stream_ok else 'FAIL'} "
          f"({arc['streamed_vs_materialized_throughput']}x); "
          f"peak memory {arc['streamed']['peak_traced_mb']} MB streamed vs "
          f"{arc['materialized']['peak_traced_mb']} MB materialized; "
          f"payload identical: {arc['payload_identical']}")
    print(f"results -> {out_ingest}\n")
    # Throughput ratios jitter on shared machines (reported, not
    # enforced), but payload identity is a correctness bit: fail the run
    # if the streamed path ever diverges from the materialized one.
    exit_code = 0 if arc["payload_identical"] else 1
    if args.ingest_only:
        return exit_code

    results = {
        "kernel_sparse_trace": _bench_kernel(),
        "kernel_large_cluster": _bench_kernel_large_cluster(),
        "rollout_ppo_bench_policy": _bench_rollout((128, 128)),
        "rollout_ppo_large_policy": _bench_rollout((256, 256)),
    }
    out = root / "BENCH_kernel.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    kernel_ok = results["kernel_sparse_trace"]["speedup"] >= 3.0
    vec_ok = results["rollout_ppo_large_policy"]["speedup"] >= 2.0
    # Thresholds are reported, not enforced: wall-clock ratios on shared
    # CI machines jitter; the JSON is the record of what was measured.
    print(f"\nkernel speedup >= 3x: {'PASS' if kernel_ok else 'FAIL'}; "
          f"SoA large-cluster speedup over the loop path: "
          f"{results['kernel_large_cluster']['speedup']}x; "
          f"vec(8) speedup >= 2x (large policy): {'PASS' if vec_ok else 'FAIL'}")
    print(f"results -> {out}")

    serve = _bench_serve()
    out_serve = root / "BENCH_serve.json"
    out_serve.write_text(json.dumps(serve, indent=2) + "\n")
    print(json.dumps(serve, indent=2))
    for name, row in serve["policies"].items():
        status = "PASS" if row["served_equals_batch"] else "FAIL"
        print(f"serve[{name}]: byte-identity vs batch {status}; "
              f"p50 {row['decision_p50_us']} us, "
              f"p99 {row['decision_p99_us']} us per decision pass, "
              f"{row['sustained_jobs_per_s']} jobs/s sustained")
        # Timing jitters on shared machines (reported, not enforced);
        # the serving invariant is a correctness gate.
        if not row["served_equals_batch"]:
            exit_code = 1
    print(f"results -> {out_serve}")

    if not args.skip_parallel:
        parallel = {"parallel_sweep": _bench_parallel_sweep(),
                    "windowed_eval": _bench_windowed()}
        out_par = root / "BENCH_parallel.json"
        out_par.write_text(json.dumps(parallel, indent=2) + "\n")
        print(json.dumps(parallel, indent=2))
        sweep = parallel["parallel_sweep"]
        par_ok = sweep["parallel_speedup"] >= 2.5
        warm_ok = sweep["warm_cache_speedup"] >= 2.5
        print(f"\nparallel(4) sweep speedup >= 2.5x: "
              f"{'PASS' if par_ok else 'FAIL'} "
              f"({sweep['parallel_speedup']}x on {sweep['cpu_count']} cores, "
              f"{sweep['cpu_affinity']} in this process's affinity mask); "
              f"warm-cache replay >= 2.5x: {'PASS' if warm_ok else 'FAIL'} "
              f"({sweep['warm_cache_speedup']}x); "
              f"rows byte-identical: {sweep['rows_byte_identical']}")
        win = parallel["windowed_eval"]
        print(f"windowed == monolithic (single window, float for float): "
              f"{'PASS' if win['single_window_equals_monolithic'] else 'FAIL'}; "
              f"peak memory {win['windowed_peak_mb']} MB windowed vs "
              f"{win['monolithic_peak_mb']} MB monolithic "
              f"({win['peak_memory_ratio']}x) over "
              f"{win['archive']['jobs']} jobs in "
              f"{win['archive']['windows']} windows")
        print(f"results -> {out_par}")
        # Speedups jitter on shared machines (reported, not enforced),
        # but the exactness bit is a correctness gate.
        if not win["single_window_equals_monolithic"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())


def test_fault_injector_step(benchmark):
    from repro.sim import FaultInjector, FaultModel, Platform

    scenario = standard_scenario(load=0.9, horizon=40)
    sim = Simulation(scenario.platforms, scenario.trace(1000),
                     SimulationConfig(horizon=500))
    sched = EDFScheduler()
    for _ in range(10):
        sched.schedule(sim)
        sim.advance_tick()
    injector = FaultInjector(
        {p.name: FaultModel(mtbf=50.0, mttr=8.0) for p in scenario.platforms},
        rng=np.random.default_rng(0),
    )
    benchmark(injector.step, sim)
