"""CLI: registry completeness, run/train/evaluate round trips."""

import json

import pytest

from repro.cli import build_parser, experiment_registry, main


class TestRegistry:
    def test_all_experiments_registered(self):
        registry = experiment_registry()
        for eid in range(1, 18):
            assert any(name.startswith(f"e{eid:02d}_") for name in registry), eid

    def test_registry_entries_callable(self):
        assert all(callable(fn) for fn in experiment_registry().values())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "e14_energy", "--csv", "x.csv"])
        assert args.experiment == "e14_energy"
        assert args.csv == "x.csv"

    def test_parses_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.algo == "ppo" and args.load == 0.7

    def test_rejects_bad_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--algo", "dqn"])

    def test_parses_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1 and args.no_cache is False
        assert args.loads == [0.5, 0.8]

    def test_parses_sweep_workers_and_no_cache(self):
        args = build_parser().parse_args(
            ["sweep", "--workers", "4", "--no-cache", "--loads", "0.6"])
        assert args.workers == 4 and args.no_cache is True
        assert args.loads == [0.6]

    def test_run_accepts_workers(self):
        args = build_parser().parse_args(["run", "e03_load_sweep",
                                          "--workers", "2"])
        assert args.workers == 2


class TestCommands:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e02_main_table" in out and "e15_dag_workloads" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "e99_nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_saves_json_and_csv(self, tmp_path, capsys):
        out_json = tmp_path / "rows.json"
        out_csv = tmp_path / "rows.csv"
        code = main(["run", "e14_energy", "--out", str(out_json),
                     "--csv", str(out_csv)])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert "e14_energy" in data["tables"]
        assert out_csv.read_text().startswith("scheduler")

    def test_sweep_cold_then_warm_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out_json = tmp_path / "rows.json"
        argv = ["sweep", "--loads", "0.6", "--schedulers", "edf,fifo",
                "--traces", "1", "--max-ticks", "60",
                "--cache-dir", cache_dir, "--out", str(out_json)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "edf" in out and "fifo" in out
        assert "2 misses" in out
        data = json.loads(out_json.read_text())
        assert len(data["tables"]["sweep"]) == 2
        # Second run: every cell served from the persistent cache.
        assert main(argv) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().out

    def test_sweep_rejects_empty_schedulers(self, capsys):
        assert main(["sweep", "--schedulers", ","]) == 2
        assert "no schedulers" in capsys.readouterr().err

    def test_evaluate_without_policy(self, capsys):
        assert main(["evaluate", "--traces", "1"]) == 0
        out = capsys.readouterr().out
        assert "edf" in out and "miss_rate" in out

    def test_evaluate_equals_serial_scheduler_loop(self, capsys):
        """Random row included: one roster instance serves both traces."""
        import numpy as np

        from repro.baselines import baseline_roster
        from repro.core import evaluate_scheduler
        from repro.harness.experiments import quick_scenario
        from repro.harness.tables import format_table

        assert main(["evaluate", "--traces", "2"]) == 0
        scenario = quick_scenario(load=0.7)
        traces = scenario.traces(2)
        rows = []
        for name, sched in baseline_roster().items():
            reports = evaluate_scheduler(sched, scenario.platforms, traces,
                                         max_ticks=scenario.max_ticks)
            rows.append({"scheduler": name, **{
                m: float(np.mean([getattr(r, m) for r in reports]))
                for m in ("miss_rate", "mean_slowdown", "mean_utilization")}})
        rows.sort(key=lambda r: r["miss_rate"])
        expected = format_table(rows, title="evaluation (load=0.7)")
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.slow
    @pytest.mark.parametrize("algo", ["reinforce", "a2c", "ppo"])
    def test_train_then_evaluate_roundtrip(self, tmp_path, capsys, algo):
        """Every algo's output loads: reinforce and a2c train (64, 64)
        policies, ppo (128, 128)."""
        policy = tmp_path / "p.npz"
        assert main(["train", "--algo", algo, "--iterations", "2",
                     "--out", str(policy)]) == 0
        assert policy.exists()
        assert main(["evaluate", "--policy", str(policy), "--traces", "1"]) == 0
        assert "drl" in capsys.readouterr().out


class TestTraceCommands:
    """trace import | stats | convert + the scenario registry surface."""

    def fixture(self):
        from repro.workload.ingest import swf_fixture_path

        return swf_fixture_path()

    def test_parses_trace_import(self):
        args = build_parser().parse_args(
            ["trace", "import", "--format", "swf", "--input", "x.swf",
             "--out", "t.json.gz", "--target-load", "0.8"])
        assert args.trace_command == "import"
        assert args.target_load == 0.8

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_import_swf_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.json.gz"
        code = main(["trace", "import", "--format", "swf",
                     "--input", self.fixture(), "--out", str(out),
                     "--tick-seconds", "120", "--target-load", "0.8"])
        assert code == 0
        assert "imported" in capsys.readouterr().out
        from repro.workload.traces import load_trace

        jobs = load_trace(str(out))
        assert len(jobs) >= 70

    def test_import_deterministic_bytes(self, tmp_path, capsys):
        outs = [tmp_path / "a.json.gz", tmp_path / "b.json.gz"]
        for out in outs:
            assert main(["trace", "import", "--format", "swf",
                         "--input", self.fixture(), "--out", str(out),
                         "--seed", "3"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_import_columnar_preset(self, tmp_path, capsys):
        from repro.workload.ingest import columnar_fixture_path

        out = tmp_path / "col.json"
        code = main(["trace", "import", "--format", "columnar",
                     "--spec", "alibaba",
                     "--input", columnar_fixture_path(), "--out", str(out)])
        assert code == 0
        from repro.workload.traces import load_trace

        assert load_trace(str(out))

    def test_stats_on_archive_and_imported_trace(self, tmp_path, capsys):
        assert main(["trace", "stats", "--format", "swf",
                     "--input", self.fixture()]) == 0
        assert "span_seconds" in capsys.readouterr().out
        out = tmp_path / "t.json"
        main(["trace", "import", "--format", "swf",
              "--input", self.fixture(), "--out", str(out)])
        capsys.readouterr()
        assert main(["trace", "stats", "--input", str(out)]) == 0
        assert "horizon_ticks" in capsys.readouterr().out

    def test_convert_recompresses(self, tmp_path, capsys):
        plain = tmp_path / "t.json"
        packed = tmp_path / "t.json.gz"
        main(["trace", "import", "--format", "swf",
              "--input", self.fixture(), "--out", str(plain)])
        assert main(["trace", "convert", "--input", str(plain),
                     "--out", str(packed)]) == 0
        from repro.workload.traces import load_trace, trace_payload

        assert trace_payload(load_trace(str(packed))) == \
            trace_payload(load_trace(str(plain)))

    def test_scenarios_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "swf-fixture" in out and "columnar-fixture" in out

    def test_layout_flags_override_preset_spec(self):
        """--time-unit etc. must apply on top of --spec, not be ignored."""
        from repro.cli import _columnar_spec

        args = build_parser().parse_args(
            ["trace", "stats", "--format", "columnar", "--input", "x.csv",
             "--spec", "google", "--time-unit", "ms", "--delimiter", ";"])
        spec = _columnar_spec(args)
        assert spec.time_unit == "ms"
        assert spec.delimiter == ";"
        # untouched preset fields survive
        assert spec.end_time_column == "end_time"
        args = build_parser().parse_args(
            ["trace", "stats", "--format", "columnar", "--input", "x.csv",
             "--spec", "google"])
        assert _columnar_spec(args).time_unit == "us"

    def test_sweep_accepts_scenario_names(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "swf-fixture", "columnar-fixture"])
        assert args.scenario == ["swf-fixture", "columnar-fixture"]

    def test_parses_stream_and_shard_flags(self):
        args = build_parser().parse_args(
            ["trace", "import", "--format", "swf", "--input", "x.swf",
             "--out", "t.jsonl.gz", "--stream", "--shard-jobs", "1000"])
        assert args.stream is True and args.shard_jobs == 1000
        args = build_parser().parse_args(
            ["trace", "convert", "--input", "a.json", "--out", "d",
             "--shard-jobs", "500"])
        assert args.shard_jobs == 500
        args = build_parser().parse_args(
            ["sweep", "--cache-max-mb", "64"])
        assert args.cache_max_mb == 64.0
        args = build_parser().parse_args(
            ["run", "e02_main_table", "--scenario", "swf-fixture"])
        assert args.scenario == "swf-fixture"

    def test_streamed_import_byte_identical_to_materialized(self, tmp_path,
                                                            capsys):
        """Acceptance: --stream writes exactly the bytes the materialized
        import writes, for the same archive + config + seed."""
        outs = [tmp_path / "mat.jsonl.gz", tmp_path / "st.jsonl.gz"]
        base = ["trace", "import", "--format", "swf",
                "--input", self.fixture(), "--tick-seconds", "120",
                "--target-load", "0.8", "--seed", "3"]
        assert main(base + ["--out", str(outs[0])]) == 0
        assert main(base + ["--stream", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "streamed" in capsys.readouterr().out

    @pytest.mark.parametrize("out_name", ["t.jsonl.gz", "t.json", "shards"])
    def test_streamed_import_refuses_out_of_order_archive(self, tmp_path,
                                                          capsys, out_name):
        # Job 2 submits before job 1: a streamed import cannot sort, so
        # it stops with one line naming the job and writes nothing.
        swf = tmp_path / "unsorted.swf"
        swf.write_text(
            "1 100 10 50 4 -1 -1 4 100 -1 1 1 1 -1 1 1 -1 -1\n"
            "2 40 10 50 4 -1 -1 4 100 -1 1 1 1 -1 1 1 -1 -1\n"
            "3 200 10 50 4 -1 -1 4 100 -1 1 1 1 -1 1 1 -1 -1\n")
        out = tmp_path / out_name
        args = ["trace", "import", "--format", "swf", "--input", str(swf),
                "--out", str(out), "--tick-seconds", "60"]
        if out_name == "shards":
            args += ["--shard-jobs", "2"]
        assert main(args + ["--stream"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "job 2 (submit 40" in lines[0]
        assert "without --stream" in lines[0]
        assert "normalize_records" not in lines[0]
        assert not out.exists()
        assert main(args) == 0

    def test_import_reports_selection_and_clamps(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "import", "--format", "swf",
                     "--input", self.fixture(), "--out", str(out),
                     "--max-jobs", "10"]) == 0
        text = capsys.readouterr().out
        assert "selection:" in text and "clamped:" in text
        assert "over cap" in text

    def test_import_to_shards_and_sweep(self, tmp_path, capsys):
        shards = tmp_path / "shards"
        assert main(["trace", "import", "--format", "swf",
                     "--input", self.fixture(), "--out", str(shards),
                     "--stream", "--shard-jobs", "25",
                     "--tick-seconds", "240", "--max-jobs", "30"]) == 0
        from repro.workload.traces import load_trace

        assert len(load_trace(str(shards))) == 30
        capsys.readouterr()
        assert main(["trace", "stats", "--input", str(shards)]) == 0
        assert "horizon_ticks" in capsys.readouterr().out

    def test_convert_to_jsonl_and_shards(self, tmp_path, capsys):
        plain = tmp_path / "t.json"
        main(["trace", "import", "--format", "swf",
              "--input", self.fixture(), "--out", str(plain)])
        lines = tmp_path / "t.jsonl.gz"
        shards = tmp_path / "sh"
        assert main(["trace", "convert", "--input", str(plain),
                     "--out", str(lines)]) == 0
        assert main(["trace", "convert", "--input", str(lines),
                     "--out", str(shards), "--shard-jobs", "40"]) == 0
        from repro.workload.traces import load_trace, trace_payload

        ref = trace_payload(load_trace(str(plain)))
        assert trace_payload(load_trace(str(lines))) == ref
        assert trace_payload(load_trace(str(shards))) == ref

    def test_archive_stats_reports_clamps(self, capsys):
        assert main(["trace", "stats", "--format", "swf",
                     "--input", self.fixture(),
                     "--tick-seconds", "3600"]) == 0
        out = capsys.readouterr().out
        assert "clamped_work" in out and "n_unusable" in out

    def test_evaluate_and_train_accept_scenario(self):
        args = build_parser().parse_args(["evaluate", "--scenario", "quick"])
        assert args.scenario == "quick"
        args = build_parser().parse_args(["train", "--scenario", "swf-fixture"])
        assert args.scenario == "swf-fixture"

    @pytest.mark.slow
    def test_sweep_over_trace_scenario_warm_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--scenario", "swf-fixture", "--schedulers", "edf",
                "--traces", "1", "--max-ticks", "150",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "1 misses" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "1 hits" in warm
