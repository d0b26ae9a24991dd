"""Scenario library: trace-backed scenarios, registry, cache stability.

Acceptance properties pinned here:

* trace-backed scenario fingerprints are stable across constructions
  (same file + same ingest config => same key) and sensitive to every
  ingest knob;
* sweep rows over a real-trace scenario are byte-identical for workers
  in {1, 2, 4} and on warm-cache replay;
* imported traces run under every scheduler in the baseline roster on
  both engines, with identical results across engines.
"""

import json

import pytest

from repro.baselines import baseline_roster
from repro.core import CoreConfig
from repro.harness import (
    BaselineFactory,
    FixedTraceScenario,
    ResultCache,
    TraceBackedScenario,
    fingerprint,
    get_scenario,
    list_scenarios,
    register_scenario,
    sweep_schedulers,
)
from repro.sim.platform import Platform
from repro.workload.ingest import (
    IngestConfig,
    parse_swf,
    swf_fixture_path,
)
from repro.workload.traces import save_trace

SMALL_CORE = CoreConfig(queue_slots=4, running_slots=3, horizon=8)


def small_trace_scenario(engine: str = "tick", seed: int = 0,
                         target_load: float = 0.7) -> TraceBackedScenario:
    """Bench-sized trace-backed scenario over the bundled SWF fixture."""
    return TraceBackedScenario.from_swf(
        swf_fixture_path(),
        ingest=IngestConfig(tick_seconds=240.0, max_jobs=30,
                            max_parallelism_cap=6, target_load=target_load,
                            seed=seed),
        platforms=[Platform("cpu", 10, 1.0), Platform("gpu", 4, 1.0)],
        core=SMALL_CORE, max_ticks=150, engine=engine)


def rows_bytes(rows) -> str:
    return json.dumps(rows, sort_keys=True)


class TestRegistry:
    def test_builtins_listed(self):
        names = set(list_scenarios())
        assert {"standard", "quick", "swf-fixture", "columnar-fixture"} <= names

    def test_get_builds_fresh_instances(self):
        a, b = get_scenario("swf-fixture"), get_scenario("swf-fixture")
        assert a is not b
        assert fingerprint(a) == fingerprint(b)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="swf-fixture"):
            get_scenario("nope")

    def test_register_and_replace(self):
        register_scenario("tmp-test", lambda **kw: get_scenario("quick", **kw),
                          "temporary")
        try:
            assert list_scenarios()["tmp-test"] == "temporary"
            assert get_scenario("tmp-test").load == 0.7
        finally:
            from repro.harness import library

            library._REGISTRY.pop("tmp-test", None)

    def test_trace_file_path_resolves(self, tmp_path):
        scenario = small_trace_scenario()
        path = tmp_path / "pinned.json.gz"
        save_trace(scenario.trace(1000), str(path))
        fixed = get_scenario(str(path))
        assert isinstance(fixed, FixedTraceScenario)
        assert len(fixed.trace(0)) == len(fixed.trace(99))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_scenario("", lambda: None)


class TestTraceBackedScenario:
    def test_traces_are_paired_variants(self):
        scenario = small_trace_scenario()
        t1, t2 = scenario.trace(1000), scenario.trace(1001)
        assert [j.arrival_time for j in t1] == [j.arrival_time for j in t2]
        assert [j.work for j in t1] == [j.work for j in t2]
        assert [j.deadline for j in t1] != [j.deadline for j in t2]

    def test_measured_load_near_target(self):
        scenario = small_trace_scenario(target_load=0.7)
        assert scenario.load == pytest.approx(0.7, rel=0.2)

    def test_calibrated_workload_backs_train_env(self):
        scenario = small_trace_scenario()
        env = scenario.train_env(seed=0)
        obs = env.reset()
        assert obs.shape == (env.encoder.obs_dim,)

    def test_requires_records(self):
        with pytest.raises(ValueError, match="at least one raw record"):
            TraceBackedScenario(
                platforms=[Platform("cpu", 4, 1.0)],
                workload=small_trace_scenario().workload, load=0.5)

    def test_unusable_archive_rejected(self):
        from repro.workload.ingest import RawJobRecord

        dead = [RawJobRecord(job_id=1, submit_time=0.0, run_time=-1.0)]
        with pytest.raises(ValueError, match="no usable jobs"):
            TraceBackedScenario.from_records(dead)

    def test_with_engine_preserves_records(self):
        scenario = small_trace_scenario().with_engine("event")
        assert scenario.engine == "event"
        assert scenario.records
        assert scenario.trace(1000)


class TestFingerprintStability:
    def test_same_inputs_same_fingerprint(self):
        assert fingerprint(small_trace_scenario()) == \
            fingerprint(small_trace_scenario())

    def test_ingest_knobs_change_fingerprint(self):
        base = fingerprint(small_trace_scenario())
        assert fingerprint(small_trace_scenario(seed=1)) != base
        assert fingerprint(small_trace_scenario(target_load=0.6)) != base
        assert fingerprint(small_trace_scenario(engine="event")) != base

    def test_fixed_trace_fingerprint_ignores_job_ids(self, tmp_path):
        scenario = small_trace_scenario()
        path = tmp_path / "pinned.json"
        save_trace(scenario.trace(1000), str(path))
        # two loads create distinct Job objects; the payload-backed
        # fingerprint must not see them
        a = FixedTraceScenario.from_file(str(path))
        b = FixedTraceScenario.from_file(str(path))
        assert fingerprint(a) == fingerprint(b)

    def test_fixed_trace_fingerprint_tracks_content(self, tmp_path):
        scenario = small_trace_scenario()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_trace(scenario.trace(1000), str(p1))
        save_trace(scenario.trace(1001), str(p2))
        assert fingerprint(FixedTraceScenario.from_file(str(p1))) != \
            fingerprint(FixedTraceScenario.from_file(str(p2)))

    def test_fingerprint_stable_across_containers(self, tmp_path):
        """The same jobs give the same cache key whichever container
        (.json, .jsonl.gz, shards) — and so whichever import path,
        streamed or materialized — produced them."""
        from repro.workload.traces import save_trace_shards

        jobs = small_trace_scenario().trace(1000)
        plain = tmp_path / "t.json"
        lines = tmp_path / "t.jsonl.gz"
        shards = tmp_path / "shards"
        save_trace(jobs, str(plain))
        save_trace(jobs, str(lines))
        save_trace_shards(iter(jobs), str(shards), jobs_per_shard=10)
        prints = {fingerprint(FixedTraceScenario.from_file(str(p)))
                  for p in (plain, lines, shards)}
        assert len(prints) == 1

    def test_trace_backed_fingerprint_ignores_source(self):
        a = small_trace_scenario()
        b = small_trace_scenario()
        b.source = "a-copy-of-the-archive.swf"
        assert fingerprint(a) == fingerprint(b)


class TestWithTargetLoad:
    def test_renormalizes_to_new_load(self):
        base = small_trace_scenario(target_load=0.7)
        lighter = base.with_target_load(0.4)
        assert lighter.load == pytest.approx(0.4, rel=0.25)
        assert lighter.ingest.target_load == 0.4
        assert lighter.records == base.records
        assert lighter.engine == base.engine

    def test_horizon_covers_the_rescaled_trace(self):
        """Lowering the load stretches arrivals; max_ticks must follow,
        or the swept point silently simulates a truncated trace."""
        base = small_trace_scenario(target_load=0.7)
        lighter = base.with_target_load(0.2)
        last_arrival = max(j.arrival_time for j in lighter.trace(1000))
        assert lighter.max_ticks > last_arrival

    def test_changes_fingerprint(self):
        base = small_trace_scenario(target_load=0.7)
        assert fingerprint(base.with_target_load(0.5)) != fingerprint(base)


class TestSweepByteIdentity:
    SCHEDULERS = {"edf": BaselineFactory("edf"), "fifo": BaselineFactory("fifo")}

    def test_rows_identical_across_worker_counts_and_warm_cache(self, tmp_path):
        scenarios = {"swf": small_trace_scenario()}
        reference = None
        for workers in (1, 2, 4):
            rows = sweep_schedulers(scenarios, self.SCHEDULERS, n_traces=2,
                                    workers=workers)
            if reference is None:
                reference = rows_bytes(rows)
            assert rows_bytes(rows) == reference, f"workers={workers} diverged"

        cache = ResultCache(tmp_path / "cache")
        cold = sweep_schedulers(scenarios, self.SCHEDULERS, n_traces=2,
                                cache=cache)
        assert rows_bytes(cold) == reference
        assert cache.stats["misses"] == 4
        warm = sweep_schedulers(scenarios, self.SCHEDULERS, n_traces=2,
                                cache=cache)
        assert rows_bytes(warm) == reference
        assert cache.stats["hits"] == 4

    def test_fixed_trace_scenario_sweeps_and_caches(self, tmp_path):
        path = tmp_path / "pinned.json.gz"
        save_trace(small_trace_scenario().trace(1000), str(path))
        scenarios = {"pinned": get_scenario(str(path), core=SMALL_CORE,
                                            max_ticks=150)}
        cache = ResultCache(tmp_path / "cache")
        a = sweep_schedulers(scenarios, self.SCHEDULERS, n_traces=2,
                             cache=cache)
        b = sweep_schedulers(scenarios, self.SCHEDULERS, n_traces=2,
                             cache=cache)
        assert rows_bytes(a) == rows_bytes(b)
        assert cache.stats["hits"] == 4


def small_columnar_scenario() -> TraceBackedScenario:
    """Bench-sized trace-backed scenario over the columnar CSV fixture."""
    from repro.workload.ingest import columnar_fixture_path
    from repro.workload.ingest.columnar import ALIBABA_LIKE_SPEC

    return TraceBackedScenario.from_columnar(
        columnar_fixture_path(), ALIBABA_LIKE_SPEC,
        ingest=IngestConfig(tick_seconds=120.0, max_jobs=30,
                            max_parallelism_cap=6, target_load=0.7),
        platforms=[Platform("cpu", 10, 1.0), Platform("gpu", 4, 1.0)],
        core=SMALL_CORE, max_ticks=150)


class TestRosterBothEngines:
    @pytest.mark.slow
    @pytest.mark.parametrize("make_scenario",
                             [small_trace_scenario, small_columnar_scenario],
                             ids=["swf", "columnar"])
    def test_full_roster_runs_on_imported_trace_both_engines(self, make_scenario):
        """Acceptance: imported traces (both adapters) run under every
        baseline on both engines — and the engines agree exactly."""
        from repro.core import evaluate_scheduler

        scenario = make_scenario()
        for name in baseline_roster():
            per_engine = {}
            for engine in ("tick", "event"):
                # fresh scheduler per engine: stateful baselines (random)
                # consume their RNG stream across runs
                sched = baseline_roster()[name]
                reports = evaluate_scheduler(
                    sched, scenario.platforms, [scenario.trace(1000)],
                    max_ticks=scenario.max_ticks, engine=engine)
                per_engine[engine] = reports[0]
            assert per_engine["tick"] == per_engine["event"], name

    def test_roster_smoke_on_columnar_scenario(self):
        scenario = get_scenario("columnar-fixture")
        rows = sweep_schedulers(
            {"col": scenario},
            {"edf": BaselineFactory("edf")}, n_traces=1, max_ticks=150)
        assert rows and rows[0]["scenario"] == "col"

    def test_columnar_trace_roundtrips_gzipped(self, tmp_path):
        """Acceptance: the columnar adapter's output survives
        save_trace/load_trace through .json.gz and still evaluates."""
        from repro.core import evaluate_scheduler
        from repro.workload.traces import load_trace

        scenario = small_columnar_scenario()
        path = tmp_path / "col.json.gz"
        save_trace(scenario.trace(1000), str(path))
        jobs = load_trace(str(path))
        report = evaluate_scheduler(baseline_roster()["edf"],
                                    scenario.platforms, [jobs],
                                    max_ticks=scenario.max_ticks)[0]
        assert report.num_jobs == len(jobs)


class TestTraceDirEnv:
    """REPRO_TRACE_DIR attaches registry-style names to local archives."""

    @pytest.fixture
    def trace_dir(self, tmp_path):
        scenario = small_trace_scenario()
        save_trace(scenario.trace(1000), str(tmp_path / "myarchive.jsonl.gz"))
        save_trace(scenario.trace(1000), str(tmp_path / "plainjson.json"))
        return tmp_path

    def test_name_attaches_to_container(self, trace_dir, monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV

        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        for name in ("myarchive", "plainjson"):
            scenario = get_scenario(name)
            assert isinstance(scenario, FixedTraceScenario)
            assert scenario.source.startswith(str(trace_dir))
        # Registry names still win over the attachment directory.
        assert get_scenario("quick").load == 0.7

    def test_attached_and_direct_path_share_fingerprint(self, trace_dir,
                                                        monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV

        direct = get_scenario(str(trace_dir / "myarchive.jsonl.gz"))
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        attached = get_scenario("myarchive")
        assert fingerprint(attached) == fingerprint(direct)

    def test_shard_directory_attaches_by_bare_name(self, trace_dir,
                                                   monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV
        from repro.workload.traces import save_trace_shards

        scenario = small_trace_scenario()
        save_trace_shards(scenario.trace(1000), str(trace_dir / "sharded"),
                          jobs_per_shard=8)
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        assert isinstance(get_scenario("sharded"), FixedTraceScenario)

    def test_missing_archive_is_a_clear_error(self, trace_dir, monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV

        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        with pytest.raises(KeyError) as err:
            get_scenario("nonexistent-archive")
        message = str(err.value)
        assert TRACE_DIR_ENV in message
        assert "nonexistent-archive" in message
        assert str(trace_dir) in message

    def test_unset_env_mentions_the_hook(self, monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV

        monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
        with pytest.raises(KeyError, match=TRACE_DIR_ENV):
            get_scenario("nonexistent-archive")

    def test_plain_directory_without_manifest_not_attached(self, trace_dir,
                                                           monkeypatch):
        from repro.harness.library import TRACE_DIR_ENV

        (trace_dir / "notatrace").mkdir()
        monkeypatch.setenv(TRACE_DIR_ENV, str(trace_dir))
        with pytest.raises(KeyError, match="notatrace"):
            get_scenario("notatrace")
