"""Windowed segment cells: exact equivalence with monolithic evaluation.

Acceptance properties pinned here:

* ``merge_segments`` over any window decomposition reproduces — float
  for float — the single :func:`compute_metrics` call over the same
  records on the global time axis (the reduction is *exact*, not
  approximate);
* a single whole-container window matches the monolithic
  :class:`FixedTraceScenario` evaluation exactly;
* the window planner produces contiguous windows, rejects unsorted
  containers, and the content digest catches a container changing under
  a cached plan;
* windowed rows are byte-identical across worker counts and on
  warm-cache replay (segments round-trip through the result cache).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import CoreConfig
from repro.core.training import evaluate_scheduler_runs
from repro.harness import (
    BaselineFactory,
    FixedTraceScenario,
    ResultCache,
    TraceWindowScenario,
    plan_trace_windows,
    evaluate_windowed,
    sweep_windowed,
)
from repro.harness.parallel import EvalCell, cell_key, run_cells
from repro.sim.metrics import SegmentMetrics, compute_metrics, merge_segments
from repro.harness.scenario import standard_scenario
from repro.workload.traces import (
    iter_trace_lines,
    load_trace,
    job_payload,
    save_trace,
    save_trace_shards,
)

EDF = BaselineFactory("edf")
SEED = 1000


def make_jobs():
    """A deterministic job stream re-based so the first arrival is 0."""
    scenario = standard_scenario(
        load=0.7, horizon=30, cpu_capacity=8, gpu_capacity=4,
        core=CoreConfig(queue_slots=3, running_slots=2, horizon=6),
        max_ticks=200)
    jobs = sorted(scenario.trace(SEED), key=lambda j: j.arrival_time)
    first = jobs[0].arrival_time
    for j in jobs:
        j.arrival_time -= first
        j.deadline -= first
    return jobs


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    jobs = make_jobs()
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl.gz"
    save_trace(jobs, str(path))
    return str(path), len(jobs)


@pytest.fixture(scope="module")
def shard_container(tmp_path_factory, container):
    path, n = container
    directory = tmp_path_factory.mktemp("shards") / "trace-shards"
    save_trace_shards(load_trace(path), str(directory), jobs_per_shard=7)
    return str(directory), n


def reference_report(windows, trace_seed=SEED):
    """Monolithic reduction over the same decomposition: simulate each
    window, shift every record (and the horizon) back onto the global
    time axis, and run the single-pass :func:`compute_metrics` over the
    concatenation. This is the ground truth ``merge_segments`` must
    reproduce exactly."""
    records, series, horizon = [], [], 0.0
    for w in windows:
        sim = evaluate_scheduler_runs(
            EDF(w), w.platforms, [w.trace(trace_seed)],
            max_ticks=w.max_ticks, engine=w.engine)[0]
        for r in sim.records():
            shifted = dict(arrival=r.arrival + w.offset,
                           deadline=r.deadline + w.offset)
            if r.finish is not None:
                shifted["finish"] = r.finish + w.offset
            records.append(dataclasses.replace(r, **shifted))
        series.extend(sim.utilization_series)
        horizon = max(horizon, sim.now + w.offset)
    return compute_metrics(records, utilization_series=series,
                           horizon=horizon)


class TestPlanner:
    def test_contiguous_windows_cover_container(self, container):
        path, n = container
        windows = plan_trace_windows(path, 7)
        assert [w.start for w in windows] == \
            list(np.cumsum([0] + [w.count for w in windows[:-1]]))
        assert sum(w.count for w in windows) == n
        assert all(0 < w.count <= 7 for w in windows)
        assert [w.window_index for w in windows] == list(range(len(windows)))
        assert all(w.n_windows == len(windows) for w in windows)
        # Offsets are the global first-arrival of each window.
        assert windows[0].offset == 0
        assert all(a.offset <= b.offset
                   for a, b in zip(windows, windows[1:]))

    def test_window_trace_streams_only_its_slice(self, shard_container):
        directory, n = shard_container
        flat = load_trace(directory)
        assert len(flat) == n
        got = [job for _, job in iter_trace_lines(directory, 9, 5)]
        assert [job_payload(j) for j in got] == \
            [job_payload(j) for j in flat[9:14]]

    def test_unsorted_container_rejected(self, tmp_path):
        jobs = make_jobs()
        jobs[0], jobs[-1] = jobs[-1], jobs[0]
        path = tmp_path / "unsorted.jsonl.gz"
        save_trace(jobs, str(path))
        with pytest.raises(ValueError, match="not sorted by arrival"):
            plan_trace_windows(str(path), 5)

    def test_digest_catches_container_drift(self, tmp_path):
        jobs = make_jobs()
        path = tmp_path / "drift.jsonl.gz"
        save_trace(jobs, str(path))
        windows = plan_trace_windows(str(path), 7)
        jobs2 = make_jobs()
        jobs2[3].work *= 2.0
        save_trace(jobs2, str(path))
        with pytest.raises(ValueError, match="content changed"):
            windows[0].trace(SEED)

    def test_window_must_be_positive(self, container):
        path, _ = container
        with pytest.raises(ValueError, match="window_jobs"):
            plan_trace_windows(path, 0)
        with pytest.raises(ValueError, match="non-empty window"):
            TraceWindowScenario(
                platforms=plan_trace_windows(path, 7)[0].platforms,
                workload=plan_trace_windows(path, 7)[0].workload,
                load=0.5, path=path, count=0, digest="x")

    def test_cache_key_ignores_provenance_not_content(self, container,
                                                      shard_container):
        """Moving or re-sharding the archive keeps cache keys (the digest
        pins content); a different window of the same container gets a
        different key."""
        flat, _ = container
        shards, _ = shard_container
        wf = plan_trace_windows(flat, 7)
        ws = plan_trace_windows(shards, 7)
        keyf = [cell_key(EvalCell("w", w, "edf", EDF, w.window_index, SEED,
                                  w.max_ticks)) for w in wf]
        keys = [cell_key(EvalCell("w", w, "edf", EDF, w.window_index, SEED,
                                  w.max_ticks)) for w in ws]
        assert keyf == keys
        assert len(set(keyf)) == len(keyf)


class TestExactEquivalence:
    @pytest.mark.parametrize("window_jobs", [5, 9, 10_000])
    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_merge_matches_single_pass_reduction(self, container,
                                                 window_jobs, engine):
        path, n = container
        windows = plan_trace_windows(path, window_jobs, engine=engine)
        if window_jobs >= n:
            assert len(windows) == 1
        merged = merge_segments(
            [w.evaluate_segment(EDF(w), SEED) for w in windows])
        assert merged == reference_report(windows)

    def test_single_window_matches_monolithic_scenario(self, container):
        path, n = container
        [window] = plan_trace_windows(path, n)
        assert window.offset == 0
        merged = merge_segments([window.evaluate_segment(EDF(window), SEED)])
        mono = FixedTraceScenario.from_file(path)
        assert window.max_ticks == mono.max_ticks
        sim = evaluate_scheduler_runs(
            EDF(mono), mono.platforms, [mono.trace(SEED)],
            max_ticks=mono.max_ticks, engine=mono.engine)[0]
        assert merged == compute_metrics(
            sim.records(), utilization_series=sim.utilization_series,
            horizon=sim.now)

    def test_decompositions_agree_with_each_other(self, container):
        path, _ = container
        reports = {
            wj: merge_segments([w.evaluate_segment(EDF(w), SEED)
                                for w in plan_trace_windows(path, wj)])
            for wj in (5, 9, 10_000)
        }
        a, b, c = reports.values()
        # Counts and shift-invariant aggregates are decomposition-
        # independent (each window is an independent episode, so
        # boundary jobs may schedule differently only if the simulation
        # itself differed — it must not for count/identity columns).
        assert a.num_jobs == b.num_jobs == c.num_jobs


class TestSegmentPayload:
    def test_json_roundtrip_exact(self, container):
        path, _ = container
        w = plan_trace_windows(path, 7)[1]
        seg = w.evaluate_segment(EDF(w), SEED)
        back = SegmentMetrics.from_payload(
            json.loads(json.dumps(seg.to_payload())))
        assert back.n_jobs == seg.n_jobs
        assert back.classes == seg.classes
        for name in ("class_idx", "finished", "missed", "dropped",
                     "slowdown", "jct", "tardiness", "finish",
                     "utilization"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(seg, name))
        assert back.horizon == seg.horizon
        assert merge_segments([back]) == merge_segments([seg])

    def test_segment_cache_roundtrip_and_zero_recompute(
            self, container, tmp_path, monkeypatch):
        path, _ = container
        cache = ResultCache(tmp_path / "cache")
        cold = evaluate_windowed(path, {"edf": EDF}, 7, cache=cache)
        assert cache.stats["hits"] == 0 and cache.stats["misses"] > 0

        import repro.harness.parallel as par

        def boom(cell, trace):  # pragma: no cover - fails the test if called
            raise AssertionError("segment recomputed despite warm cache")

        monkeypatch.setattr(par, "run_cell", boom)
        warm = evaluate_windowed(path, {"edf": EDF}, 7, cache=cache)
        assert cache.stats["hits"] == cache.stats["misses"]
        assert warm["edf"] == cold["edf"]


class TestWindowedRows:
    def test_rows_byte_identical_across_worker_counts(self, container):
        path, n = container
        reference = None
        for workers in (1, 2):
            rows = sweep_windowed(path, {"edf": EDF, "fifo":
                                         BaselineFactory("fifo")}, 9,
                                  workers=workers)
            blob = json.dumps(rows, sort_keys=True)
            if reference is None:
                reference = blob
            assert blob == reference, f"workers={workers} diverged"
        assert json.loads(reference)[0]["n_jobs"] == n

    def test_rows_shape(self, container):
        path, n = container
        rows = sweep_windowed(path, {"edf": EDF}, 9,
                              scenario_name="windowed")
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "windowed"
        assert row["scheduler"] == "edf"
        assert row["window_jobs"] == 9 and row["n_jobs"] == n
        assert set(row) >= {"miss_rate", "mean_slowdown", "mean_tardiness",
                            "mean_utilization", "throughput"}


def window_keys(windows):
    return [cell_key(EvalCell("w", w, "edf", EDF, w.window_index, SEED,
                              w.max_ticks)) for w in windows]


def merged_report(windows):
    return merge_segments([w.evaluate_segment(EDF(w), SEED) for w in windows])


def rewrite_line(path, lineno, edit):
    """Rewrite line ``lineno`` (0-based) of a plain JSONL file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[lineno] = edit(lines[lineno])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestLineDigest:
    """A window checks the lines it streams against ``line_digest`` and
    falls back to the canonical ``digest`` only when they differ."""

    def test_resharding_keeps_line_digests_and_keys(self, tmp_path):
        jobs = make_jobs()
        plans = []
        for per_shard in (3, 7):
            directory = tmp_path / f"shards-{per_shard}"
            save_trace_shards(jobs, str(directory), jobs_per_shard=per_shard,
                              compress=False)
            plans.append(plan_trace_windows(str(directory), 5))
        three, seven = plans
        assert [w.line_digest for w in three] == \
            [w.line_digest for w in seven]
        assert [w.digest for w in three] == [w.digest for w in seven]
        assert window_keys(three) == window_keys(seven)
        assert merged_report(three) == merged_report(seven)

    def test_matching_lines_skip_the_canonical_encoding(self, container,
                                                        monkeypatch):
        import repro.harness.library as library

        path, _ = container
        windows = plan_trace_windows(path, 7)

        def boom(job):  # pragma: no cover - fails the test if called
            raise AssertionError("a matching window was re-encoded")

        monkeypatch.setattr(library, "canonical_line", boom)
        assert all(len(w.trace(SEED)) == w.count for w in windows)

    def test_json_array_container_windows(self, tmp_path, container):
        flat, n = container
        path = tmp_path / "trace.json.gz"
        save_trace(load_trace(flat), str(path))
        array = plan_trace_windows(str(path), 7)
        lines = plan_trace_windows(flat, 7)
        # An array has no stored lines: its lines are the canonical ones.
        assert [w.line_digest for w in array] == [w.digest for w in array]
        assert [w.digest for w in array] == [w.digest for w in lines]
        assert window_keys(array) == window_keys(lines)
        assert sum(w.count for w in array) == n
        assert merged_report(array) == merged_report(lines)

    def test_whitespace_rewrite_is_accepted(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        save_trace(make_jobs(), path)
        windows = plan_trace_windows(path, 7)
        before = [job_payload(j) for j in windows[1].trace(SEED)]
        rewrite_line(path, 8, lambda line: line.replace(": ", ":   ")
                     .replace(", ", " ,  "))
        replanned = plan_trace_windows(path, 7)
        assert replanned[1].line_digest != windows[1].line_digest
        assert replanned[1].digest == windows[1].digest
        assert [job_payload(j) for j in windows[1].trace(SEED)] == before

    def test_payload_change_is_refused(self, tmp_path):
        directory = tmp_path / "shards"
        save_trace_shards(make_jobs(), str(directory), jobs_per_shard=7,
                          compress=False)
        windows = plan_trace_windows(str(directory), 5)

        def double_work(line):
            item = json.loads(line)
            item["work"] *= 2.0
            return json.dumps(item)

        # Job 7 opens the second shard and sits in window 1 (jobs 5-9).
        rewrite_line(str(directory / "part-00001.jsonl"), 0, double_work)
        assert len(windows[0].trace(SEED)) == windows[0].count
        with pytest.raises(ValueError, match="content changed"):
            windows[1].trace(SEED)
