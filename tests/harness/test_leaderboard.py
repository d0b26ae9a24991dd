"""Leaderboard + policy store (:mod:`repro.harness.leaderboard`).

Acceptance properties pinned here (ISSUE 5):

* the policy store is content-addressed: a second ``get_or_train`` for
  the same (scenario, spec) is a hit and trains nothing, any change to
  either retrains under a new key, and a reloaded scheduler carries
  bit-identical weights;
* ``build_leaderboard`` rows are byte-identical for workers 1/2/4;
* a warm re-run (policy store + result cache populated) retrains
  nothing, recomputes nothing, and serializes byte-identically;
* the ranking/matrix/transfer-gap structure is complete and ordered
  deterministically;
* the CLI ``leaderboard`` subcommand writes the json/md artifacts.
"""

import json

import numpy as np
import pytest

from repro.core import CoreConfig
from repro.harness import (
    AgentSpec,
    PolicyStore,
    ResultCache,
    StoredPolicyFactory,
    build_leaderboard,
    get_scenario,
    register_scenario,
    standard_scenario,
)
from repro.rl import ReinforceConfig

TINY_CORE = CoreConfig(queue_slots=3, running_slots=2, horizon=6)


def tiny_scenario(load=0.7, **kw):
    return standard_scenario(
        load=load, horizon=15, cpu_capacity=8, gpu_capacity=4,
        core=TINY_CORE, max_ticks=60, **kw)


def tiny(**kw):
    return tiny_scenario(load=0.7, **kw)


def tiny_hot(**kw):
    return tiny_scenario(load=1.1, **kw)


register_scenario("lb-tiny", tiny, "leaderboard test scenario")
register_scenario("lb-tiny-hot", tiny_hot, "leaderboard test scenario")

#: Cheapest trainable spec: one iteration of plain REINFORCE, no warm
#: start, a 16-unit hidden layer.
TINY_SPEC = AgentSpec(
    algo="reinforce", iterations=1, warm_start=False,
    n_train_traces=2, n_val_traces=1,
    algo_config=ReinforceConfig(hidden=(16,), baseline="none"))


class TestAgentSpec:
    def test_rejects_dqn(self):
        with pytest.raises(ValueError, match="dqn"):
            AgentSpec(algo="dqn")

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            AgentSpec(iterations=0)

    def test_entry_name(self):
        assert TINY_SPEC.entry_name("quick") == "reinforce@quick"


class TestPolicyStore:
    def test_train_once_then_hit(self, tmp_path):
        store = PolicyStore(tmp_path / "policies")
        scenario = tiny()
        key = store.get_or_train("lb-tiny", scenario, TINY_SPEC)
        assert store.stats == {"hits": 0, "misses": 1, "trained": 1}
        assert key in store and len(store) == 1
        again = store.get_or_train("lb-tiny", scenario, TINY_SPEC)
        assert again == key
        assert store.stats == {"hits": 1, "misses": 1, "trained": 1}

    def test_key_sensitive_to_spec_and_scenario(self, tmp_path):
        store = PolicyStore(tmp_path / "policies")
        base = store.key(tiny(), TINY_SPEC)
        import dataclasses

        assert store.key(tiny(), dataclasses.replace(TINY_SPEC,
                                                     iterations=2)) != base
        assert store.key(tiny(), dataclasses.replace(TINY_SPEC,
                                                     seed=1)) != base
        assert store.key(tiny_hot(), TINY_SPEC) != base
        # Fresh equivalent constructions share the key (structural).
        assert store.key(tiny(), AgentSpec(
            algo="reinforce", iterations=1, warm_start=False,
            n_train_traces=2, n_val_traces=1,
            algo_config=ReinforceConfig(hidden=(16,), baseline="none"))) == base

    def test_reload_is_bit_identical(self, tmp_path):
        store = PolicyStore(tmp_path / "policies")
        scenario = tiny()
        key = store.get_or_train("lb-tiny", scenario, TINY_SPEC)
        a = store.load_scheduler(key)
        b = StoredPolicyFactory(str(store.root), key)(scenario)
        for pa, pb in zip(a.policy.net.params(), b.policy.net.params()):
            np.testing.assert_array_equal(pa, pb)
        assert a.config == scenario.core
        assert a.encoder.platform_names == [p.name for p in scenario.platforms]
        assert a.greedy

    def test_missing_key_raises(self, tmp_path):
        store = PolicyStore(tmp_path / "policies")
        with pytest.raises(KeyError, match="train it first"):
            store.load_scheduler("0" * 64)


def build(tmp_path, workers=1, cache=None, scenarios=("lb-tiny",),
          baselines=("edf", "fifo")):
    store = PolicyStore(tmp_path / "policies")
    result = build_leaderboard(
        {name: get_scenario(name) for name in scenarios},
        agents=(TINY_SPEC,), baselines=baselines,
        n_traces=2, workers=workers, cache=cache, store=store)
    return result, store


class TestDeterminism:
    def test_byte_identical_across_workers_1_2_4(self, tmp_path):
        artifacts = [build(tmp_path, workers=w)[0].to_json()
                     for w in (1, 2, 4)]
        assert artifacts[0] == artifacts[1] == artifacts[2]

    def test_warm_rerun_retrains_and_recomputes_nothing(self, tmp_path):
        cold_cache = ResultCache(tmp_path / "cache")
        cold, cold_store = build(tmp_path, cache=cold_cache)
        assert cold_store.stats["trained"] == 1
        assert cold_cache.stats["misses"] > 0
        warm_cache = ResultCache(tmp_path / "cache")
        warm, warm_store = build(tmp_path, cache=warm_cache)
        assert warm_store.stats["trained"] == 0
        assert warm_store.stats["hits"] == 1
        assert warm_cache.stats["misses"] == 0
        assert warm_cache.stats["hits"] == cold_cache.stats["misses"]
        assert cold.to_json() == warm.to_json()
        assert cold.to_markdown() == warm.to_markdown()

    def test_no_cache_matches_cached(self, tmp_path):
        cached, _ = build(tmp_path, cache=ResultCache(tmp_path / "cache"))
        uncached, _ = build(tmp_path, cache=None)
        assert cached.to_json() == uncached.to_json()


class TestStructure:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("lb")
        result, _ = build(tmp, scenarios=("lb-tiny", "lb-tiny-hot"))
        return result

    def test_rows_ranked_and_complete(self, result):
        entries = {"reinforce@lb-tiny", "reinforce@lb-tiny-hot",
                   "edf", "fifo"}
        assert {r["entry"] for r in result.rows} == entries
        assert [r["rank"] for r in result.rows] == [1, 2, 3, 4]
        ranks = [r["mean_rank"] for r in result.rows]
        assert ranks == sorted(ranks)
        for row in result.rows:
            assert 0.0 <= row["win_rate"] <= 1.0
            assert row["ci_lo"] <= row["miss_rate"] <= row["ci_hi"]

    def test_matrix_covers_grid(self, result):
        assert len(result.matrix) == 4 * 2
        cells = {(c["entry"], c["scenario"]) for c in result.matrix}
        assert len(cells) == 8
        for cell in result.matrix:
            assert cell["n_traces"] == 2

    def test_transfer_gap_only_on_trained_entries(self, result):
        for row in result.rows:
            if row["trained_on"]:
                assert "transfer_gap" in row
            else:
                assert "transfer_gap" not in row

    def test_transfer_gap_consistent_with_matrix(self, result):
        means = {(c["entry"], c["scenario"]): c["miss_rate"]
                 for c in result.matrix}
        for row in result.rows:
            if not row["trained_on"]:
                continue
            home = row["trained_on"]
            away = [s for s in result.scenario_names if s != home]
            expected = float(np.mean([
                means[(row["entry"], s)] - means[(f"reinforce@{s}", s)]
                for s in away
            ]))
            assert row["transfer_gap"] == pytest.approx(expected)

    def test_json_round_trips(self, result):
        payload = json.loads(result.to_json())
        assert payload["scenarios"] == ["lb-tiny", "lb-tiny-hot"]
        assert len(payload["policies"]) == 2
        assert {r["entry"] for r in payload["rows"]} == \
            {r["entry"] for r in result.rows}

    def test_markdown_contains_tables(self, result):
        md = result.to_markdown()
        assert md.startswith("# Trained-policy leaderboard")
        assert "| rank | entry |" in md
        assert "Cross-scenario matrix" in md


class TestValidation:
    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(KeyError, match="unknown scenario"):
            build(tmp_path, scenarios=("definitely-not-registered",))

    def test_mismatched_platform_names(self, tmp_path):
        # A CPU-only scenario cannot share a leaderboard with the
        # two-platform ones: trained policies would not transfer.
        from repro.harness import Scenario
        from repro.sim.platform import Platform
        from repro.workload.classes import default_job_classes
        from repro.workload.generator import WorkloadConfig

        def cpu_only(**kw):
            wl = WorkloadConfig(classes=default_job_classes(), horizon=15)
            return Scenario(platforms=[Platform("cpu", 8, 1.0)], workload=wl,
                            load=0.7, core=TINY_CORE, max_ticks=60)

        register_scenario("lb-cpu-only", cpu_only, "cpu only")
        with pytest.raises(ValueError, match="share platform names"):
            build(tmp_path, scenarios=("lb-tiny", "lb-cpu-only"))

    def test_no_entries(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            build_leaderboard({"lb-tiny": get_scenario("lb-tiny")}, agents=(),
                              baselines=(), store=PolicyStore(tmp_path))

    def test_duplicate_algos(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            build_leaderboard({"lb-tiny": get_scenario("lb-tiny")},
                              agents=(TINY_SPEC, TINY_SPEC),
                              store=PolicyStore(tmp_path))


class TestCLI:
    def test_leaderboard_subcommand_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "leaderboard", "--scenarios", "lb-tiny",
            "--agents", "reinforce", "--baselines", "edf,fifo",
            "--train-iterations", "1", "--train-traces", "2",
            "--val-traces", "1", "--no-warm-start", "--traces", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--policy-dir", str(tmp_path / "policies"),
            "--out", str(tmp_path / "lb.json"),
            "--out", str(tmp_path / "lb.md"),
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "1 trained, 0 reused" in cold_out
        first = (tmp_path / "lb.json").read_bytes()
        assert (tmp_path / "lb.md").read_text().startswith("#")
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "0 trained, 1 reused" in warm_out
        assert ", 0 misses" in warm_out
        assert (tmp_path / "lb.json").read_bytes() == first

    def test_bad_out_extension(self, tmp_path):
        from repro.cli import main

        assert main([
            "leaderboard", "--scenarios", "lb-tiny", "--agents", "",
            "--baselines", "edf", "--traces", "1",
            "--no-cache", "--policy-dir", str(tmp_path / "p"),
            "--out", str(tmp_path / "lb.txt"),
        ]) == 2

    def test_reads_each_trace_scenario_once(self, tmp_path, monkeypatch,
                                            capsys):
        """The scenarios the CLI resolves are the ones it ranks on."""
        from repro.cli import main
        from repro.harness import library
        from repro.workload.traces import save_trace

        monkeypatch.chdir(tmp_path)
        trace = str(tmp_path / "t.json")
        save_trace(tiny_scenario().trace(1000), trace)
        reads = []
        load_trace = library.load_trace
        monkeypatch.setattr(library, "load_trace",
                            lambda path: reads.append(path) or load_trace(path))
        assert main(["leaderboard", "--scenarios", trace, "--agents", "",
                     "--baselines", "edf", "--traces", "1",
                     "--no-cache"]) == 0
        assert reads == [trace]

    def test_e18_registered_as_experiment(self):
        from repro.cli import experiment_registry

        assert "e18_leaderboard" in experiment_registry()
