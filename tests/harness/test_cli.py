"""CLI: registry completeness, run/train/evaluate round trips."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, experiment_registry, main


def exit_code(argv) -> int:
    """``main(argv)``'s exit status, whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRegistry:
    def test_all_experiments_registered(self):
        registry = experiment_registry()
        expected = [eid for eid in range(1, 19) if eid != 10]  # e10 retired
        for eid in expected:
            assert any(name.startswith(f"e{eid:02d}_") for name in registry), eid
        assert len(registry) == len(expected)

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

    def test_trainable_algorithms_are_the_training_table(self):
        from repro.core.training import ALGOS

        def subparser(parser, name):
            [sub] = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
            return sub.choices[name]

        def option(parser, dest):
            [action] = [a for a in parser._actions if a.dest == dest]
            return action

        parser = build_parser()
        fuzz_run = subparser(subparser(parser, "fuzz"), "run")
        assert tuple(option(subparser(parser, "train"), "algo").choices) \
            == tuple(ALGOS)
        assert tuple(option(fuzz_run, "agent").choices) == tuple(ALGOS)
        assert f"({', '.join(ALGOS)})" in \
            option(subparser(parser, "leaderboard"), "agents").help

    def test_building_the_parser_imports_no_learning_stack(self):
        import repro

        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); print(' '.join(sys.modules))")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True).stdout.split()
        assert "repro.cli" in loaded
        assert "repro.core" not in loaded and "repro.rl" not in loaded

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

    @pytest.mark.parametrize("argv", [
        ["train", "--iterations", "-3"],
        ["train", "--num-envs", "0"],
        ["evaluate", "--traces", "0"],
        ["evaluate", "--workers", "0"],
        ["train", "--iterations", "x"],
        ["run", "e03_load_sweep", "--workers", "0"],
    ])
    def test_rejects_unusable_counts(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--iterations", "0"],
        ["train", "--num-envs", "1"],
        ["evaluate", "--traces", "1"],
        ["evaluate", "--workers", "1"],
    ])
    def test_accepts_smallest_counts(self, argv):
        args = build_parser().parse_args(argv)
        assert getattr(args, argv[1][2:].replace("-", "_")) == int(argv[2])


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
        """Random row included: a fresh roster instance per trace."""
        import numpy as np

        from repro.baselines import baseline_roster
        from repro.core import evaluate_scheduler
        from repro.harness.experiments import quick_scenario
        from repro.harness.tables import format_table

        assert main(["evaluate", "--traces", "2"]) == 0
        scenario = quick_scenario(load=0.7)
        traces = scenario.traces(2)
        rows = []
        for name in baseline_roster():
            reports = [evaluate_scheduler(baseline_roster()[name],
                                          scenario.platforms, [trace],
                                          max_ticks=scenario.max_ticks)[0]
                       for trace in traces]
            rows.append({"scheduler": name, **{
                m: float(np.mean([getattr(r, m) for r in reports]))
                for m in ("miss_rate", "mean_slowdown", "mean_utilization")}})
        rows.sort(key=lambda r: r["miss_rate"])
        expected = format_table(rows, title="evaluation (load=0.7)")
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.slow
    @pytest.mark.parametrize("algo", ["reinforce", "a2c", "ppo"])
    def test_train_then_evaluate_roundtrip(self, tmp_path, capsys, algo):
        """Every algo's policy file loads, whatever its hidden widths:
        reinforce and a2c train (64, 64) policies, ppo (128, 128)."""
        policy = tmp_path / "p.npz"
        assert main(["train", "--algo", algo, "--iterations", "2",
                     "--out", str(policy)]) == 0
        assert policy.exists()
        assert main(["evaluate", "--policy", str(policy), "--traces", "1"]) == 0
        assert "drl" in capsys.readouterr().out


#: Bad inputs every command must refuse with exit 2 and one stderr line
#: naming the input, before any work and before writing ``{out}``:
#: case -> (what the line names, argv). Placeholders name the inputs
#: :func:`refusal_inputs` writes.
REFUSALS = {
    "run-unknown-scenario":
        ("nope", ["run", "e03_load_sweep", "--scenario", "nope",
                  "--out", "{out}"]),
    "train-unknown-scenario":
        ("nope", ["train", "--scenario", "nope", "--out", "{out}"]),
    "evaluate-unknown-scenario": ("nope", ["evaluate", "--scenario", "nope"]),
    "sweep-unknown-scenario":
        ("nope", ["sweep", "--scenario", "nope", "--out", "{out}"]),
    "replay-unknown-scenario":
        ("nope", ["replay", "--offline", "--scenario", "nope",
                  "--out", "{out}"]),
    "serve-unknown-scenario": ("nope", ["serve", "--scenario", "nope"]),
    "leaderboard-unknown-scenario":
        ("nope", ["leaderboard", "--scenarios", "nope", "--out", "{out}"]),
    "sweep-zero-traces":
        ("--traces", ["sweep", "--traces", "0", "--out", "{out}"]),
    "replay-unknown-policy":
        ("nope", ["replay", "--offline", "--policy", "nope",
                  "--out", "{out}"]),
    "serve-unknown-policy": ("nope", ["serve", "--policy", "nope"]),
    "import-bad-columns":
        ("--columns", ["trace", "import", "--format", "columnar",
                       "--input", "{columnar}", "--columns", "submit_time",
                       "--out", "{out}"]),
    "import-without-format":
        ("--format", ["trace", "import", "--input", "{swf}", "--out", "{out}"]),
    "fuzz-unknown-store-key":
        ("nope", ["fuzz", "run", "--policy-store", "nope",
                  "--out-dir", "{out}"]),
    "evaluate-object-trace":
        ("{object}", ["evaluate", "--scenario", "{object}"]),
    "stats-object-trace":
        ("{object}", ["trace", "stats", "--input", "{object}"]),
    "evaluate-missing-trace":
        ("{missing}", ["evaluate", "--scenario", "{missing}"]),
    "run-missing-trace":
        ("{missing}", ["run", "e03_load_sweep", "--scenario", "{missing}",
                       "--out", "{out}"]),
    "run-seed-without-seed-param":
        ("e11_speedup_sensitivity does not accept --seed",
         ["run", "e11_speedup_sensitivity", "--seed", "7", "--out", "{out}"]),
    "sweep-drifted-fuzz-scenario":
        ("{drifted}", ["sweep", "--scenario", "{drifted}", "--out", "{out}"]),
    "leaderboard-missing-trace":
        ("{missing}", ["leaderboard", "--scenarios", "{missing}",
                       "--out", "{out}"]),
    "stats-undecodable-trace":
        ("{not_gzip}", ["trace", "stats", "--input", "{not_gzip}"]),
    "stats-undecodable-jsonl":
        ("{not_gzip_lines}", ["trace", "stats", "--input",
                              "{not_gzip_lines}"]),
    "stats-missing-trace":
        ("{missing}", ["trace", "stats", "--input", "{missing}"]),
    "import-undecodable-swf":
        ("{not_gzip_swf}", ["trace", "import", "--format", "swf", "--input",
                            "{not_gzip_swf}", "--out", "{out}"]),
    "import-stream-undecodable-swf":
        ("{not_gzip_swf}", ["trace", "import", "--format", "swf", "--stream",
                            "--input", "{not_gzip_swf}", "--out", "{out}"]),
    "stats-undecodable-swf":
        ("{not_gzip_swf}", ["trace", "stats", "--format", "swf", "--input",
                            "{not_gzip_swf}"]),
    "import-undecodable-columnar":
        ("{not_gzip_csv}", ["trace", "import", "--format", "columnar",
                            "--input", "{not_gzip_csv}", "--out", "{out}"]),
    "import-stream-undecodable-columnar":
        ("{not_gzip_csv}", ["trace", "import", "--format", "columnar",
                            "--stream", "--input", "{not_gzip_csv}",
                            "--out", "{out}"]),
    "stats-undecodable-columnar":
        ("{not_gzip_csv}", ["trace", "stats", "--format", "columnar",
                            "--input", "{not_gzip_csv}"]),
    "convert-missing-trace":
        ("{missing}", ["trace", "convert", "--input", "{missing}",
                       "--out", "{out}"]),
    "convert-object-trace-to-shards":
        ("{object}", ["trace", "convert", "--input", "{object}",
                      "--out", "{out}", "--shard-jobs", "5"]),
    "convert-directory":
        ("{directory}", ["trace", "convert", "--input", "{directory}",
                         "--out", "{out}"]),
    "import-missing-archive":
        ("{missing_swf}", ["trace", "import", "--format", "swf",
                           "--input", "{missing_swf}", "--out", "{out}"]),
    "sweep-zero-workers":
        ("--workers", ["sweep", "--workers", "0", "--out", "{out}"]),
    "sweep-zero-window":
        ("--window-jobs", ["sweep", "--scenario", "{trace}", "--window-jobs",
                           "0", "--out", "{out}"]),
    "sweep-negative-cache-cap":
        ("--cache-max-mb", ["sweep", "--cache-max-mb", "-1", "--out", "{out}"]),
    "sweep-negative-load":
        ("--loads", ["sweep", "--loads", "-1", "--out", "{out}"]),
    "evaluate-negative-load": ("--load", ["evaluate", "--load", "-1"]),
    "train-negative-load":
        ("--load", ["train", "--load", "-1", "--out", "{out}"]),
    "sweep-unknown-scheduler":
        ("--schedulers", ["sweep", "--schedulers", "nope", "--out", "{out}"]),
    "leaderboard-unknown-baseline":
        ("--baselines", ["leaderboard", "--baselines", "nope",
                         "--out", "{out}"]),
    "leaderboard-zero-iterations":
        ("iterations", ["leaderboard", "--train-iterations", "0",
                        "--out", "{out}"]),
    "leaderboard-dqn": ("dqn", ["leaderboard", "--agents", "dqn",
                                "--out", "{out}"]),
    "leaderboard-zero-train-traces":
        ("n_train_traces", ["leaderboard", "--train-traces", "0",
                            "--out", "{out}"]),
    "leaderboard-zero-traces":
        ("n_traces", ["leaderboard", "--traces", "0", "--out", "{out}"]),
    "serve-truncated-checkpoint":
        ("{truncated}", ["serve", "--state-dir", "{truncated_dir}"]),
    "serve-array-checkpoint":
        ("{array}", ["serve", "--state-dir", "{array_dir}"]),
    "serve-checkpoint-without-sim":
        ("{no_sim}", ["serve", "--state-dir", "{no_sim_dir}"]),
    "sweep-zero-max-ticks":
        ("--max-ticks", ["sweep", "--max-ticks", "0", "--out", "{out}"]),
    "replay-negative-max-ticks":
        ("--max-ticks", ["replay", "--offline", "--max-ticks", "-5",
                         "--out", "{out}"]),
    "prune-negative-cap":
        ("--max-mb", ["cache", "prune", "--cache-dir", "{cache}",
                      "--max-mb", "-1"]),
    "replay-unreachable-server":
        ("{directory}", ["replay", "--state-dir", "{directory}",
                         "--connect-timeout", "0.3", "--out", "{out}"]),
    "replay-online-policy":
        ("--policy", ["replay", "--policy", "nope", "--max-ticks", "3",
                      "--state-dir", "{directory}", "--connect-timeout",
                      "0.3", "--out", "{out}"]),
    "sweep-window-traces":
        ("--traces", ["sweep", "--scenario", "{trace}", "--window-jobs", "10",
                      "--traces", "5", "--out", "{out}"]),
    "replay-two-policy-sources":
        ("--policy-npz", ["replay", "--offline", "--policy", "edf",
                          "--policy-npz", "{policy}", "--out", "{out}"]),
    "serve-negative-checkpoint-every":
        ("--checkpoint-every", ["serve", "--checkpoint-every", "-2",
                                "--state-dir", "{truncated_dir}"]),
}


def refusal_inputs(root) -> dict:
    """Write the inputs the refusal rows name; returns the placeholders.

    A JSON object where a trace array belongs, plain text under a
    ``.gz`` name (a trace container, an SWF and a CSV archive), a
    directory without a shard manifest (nor a server endpoint), a valid
    trace, an untrained policy file for ``quick``, three unusable serve
    checkpoints, a fuzz archive in the working directory whose one entry
    no longer rebuilds to its name and a result cache holding one entry.
    """
    from repro.core import (
        CoreConfig,
        DRLScheduler,
        SchedulingActionSpace,
        StateEncoder,
    )
    from repro.harness.cache import ResultCache
    from repro.harness.experiments import quick_scenario
    from repro.rl import CategoricalPolicy
    from repro.serve.checkpoint import CHECKPOINT_FORMAT
    from repro.sim.metrics import MetricsReport
    from repro.workload.fuzz import default_space, save_archive
    from repro.workload.ingest import columnar_fixture_path, swf_fixture_path
    from repro.workload.traces import save_trace

    paths = {"object": root / "object.json", "missing": root / "missing.json",
             "not_gzip": root / "plain.json.gz",
             "not_gzip_lines": root / "plain.jsonl.gz",
             "not_gzip_swf": root / "plain.swf.gz",
             "not_gzip_csv": root / "plain.csv.gz",
             "missing_swf": root / "missing.swf", "directory": root / "empty",
             "trace": root / "trace.jsonl", "cache": root / "cache",
             "policy": root / "policy.npz",
             "swf": swf_fixture_path(), "columnar": columnar_fixture_path()}
    paths["object"].write_text('{"jobs": []}\n')
    paths["not_gzip"].write_text("[]\n")
    paths["not_gzip_lines"].write_text("{}\n")
    paths["not_gzip_swf"].write_text("1 0 0 10 2\n")
    paths["not_gzip_csv"].write_text("job_id,submit_time,run_time,"
                                     "processors\n1,0,10,2\n")
    paths["directory"].mkdir()
    save_trace(quick_scenario().trace(1000), str(paths["trace"]))
    core, names = CoreConfig(), [p.name for p in quick_scenario().platforms]
    policy = CategoricalPolicy.for_sizes(
        StateEncoder(core, names).obs_dim,
        SchedulingActionSpace(core, names).n, (8,), np.random.default_rng(0))
    DRLScheduler(policy, core, names).save(paths["policy"])
    checkpoints = {"truncated": '{"format": "repro-serve-ch',
                   "array": "[1, 2]\n",
                   "no_sim": json.dumps({"format": CHECKPOINT_FORMAT})}
    for name, text in checkpoints.items():
        state_dir = root / f"state-{name}"
        state_dir.mkdir()
        paths[name] = state_dir / "CHECKPOINT.json"
        paths[name].write_text(text)
        paths[f"{name}_dir"] = state_dir
    space = default_space()
    drifted = {"name": "fuzz/0123456789ab", "space": space.payload(),
               "vector": list(space.sample(0, 0, 0)),
               "build": {"horizon": 16, "max_ticks": 100}}
    save_archive({drifted["name"]: drifted}, root=str(root / ".repro-fuzz"))
    paths["drifted"] = drifted["name"]
    ResultCache(paths["cache"]).put("0" * 64, MetricsReport(*[0] * 12))
    return {name: str(path) for name, path in paths.items()}


class TestRefusals:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_exits_2_in_one_line(self, case, tmp_path, monkeypatch, capsys):
        from repro.harness.cache import ResultCache

        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_FUZZ_DIR", raising=False)
        out = tmp_path / "out.json"
        paths = refusal_inputs(tmp_path)
        named, argv = REFUSALS[case]
        argv = [arg.format(out=out, **paths) for arg in argv]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert named.format(**paths) in err
        assert "Traceback" not in err
        assert not out.exists()
        assert len(ResultCache(paths["cache"])) == 1


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_pipe_exits_1_quietly(unbuffered, tmp_path):
    """A reader that leaves (``| head``) ends a command with exit 1 and
    nothing on stderr; the pipe's read end is closed before the command
    writes, so its first write (unbuffered) or its flush fails."""
    import os
    import subprocess
    import sys

    paths = [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cache", "stats",
             "--cache-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.fixture(scope="module")
def quick_policy(tmp_path_factory):
    """One ppo iteration on ``quick``, three ways: ``train --out``, a
    policy-store entry, and the scheduler ``train_drl`` returns."""
    from repro.harness.experiments import train_drl
    from repro.harness.leaderboard import AgentSpec, PolicyStore
    from repro.harness.library import get_scenario

    root = tmp_path_factory.mktemp("quick-policy")
    path = root / "policy.npz"
    assert main(["train", "--scenario", "quick", "--iterations", "1",
                 "--out", str(path)]) == 0
    store = PolicyStore(root / "store")
    key = store.get_or_train("quick", get_scenario("quick"),
                             AgentSpec(iterations=1))
    return {"path": path, "store": store, "key": key,
            "scheduler": train_drl(get_scenario("quick"), iterations=1)}


def bare_and_foreign_files(root):
    """A bare ``p0…pN`` weights file (the old ``train --out`` format) and
    a policy file saved from a scheduler on ``cpu`` + ``fpga``."""
    from repro.core import (
        CoreConfig,
        DRLScheduler,
        SchedulingActionSpace,
        StateEncoder,
    )
    from repro.rl import CategoricalPolicy

    core, names = CoreConfig(), ["cpu", "fpga"]
    policy = CategoricalPolicy.for_sizes(
        StateEncoder(core, names).obs_dim,
        SchedulingActionSpace(core, names).n, (8,),
        np.random.default_rng(0))
    bare = root / "bare.npz"
    with open(bare, "wb") as fh:
        np.savez(fh, **{f"p{i}": p for i, p in enumerate(policy.net.params())})
    foreign = DRLScheduler(policy, core, names)
    foreign.save(root / "fpga.npz")
    return bare, foreign


class TestPolicyFile:
    """Every command that takes a trained policy reads the one policy file."""

    def test_train_out_is_the_store_entry(self, quick_policy):
        store, key = quick_policy["store"], quick_policy["key"]
        assert quick_policy["path"].read_bytes() == \
            store.path(key).read_bytes()

    @pytest.mark.parametrize("scenario_name", ["quick", "standard"])
    def test_replay_offline_matches_in_memory_scheduler(
            self, quick_policy, scenario_name, tmp_path, capsys):
        """Read back from either source, the policy decides as trained,
        also on ``standard``, whose own config encodes more features."""
        from repro.harness.library import get_scenario
        from repro.serve import batch_reference, trace_payloads

        scenario = get_scenario(scenario_name)
        expected = batch_reference(
            scenario.platforms, trace_payloads(scenario.trace(1000)),
            quick_policy["scheduler"], max_ticks=scenario.max_ticks)
        base = ["replay", "--offline", "--scenario", scenario_name]
        sources = {
            "npz": ["--policy-npz", str(quick_policy["path"])],
            "store": ["--policy-store", quick_policy["key"],
                      "--policy-dir", str(quick_policy["store"].root)],
        }
        for name, flags in sources.items():
            out = tmp_path / f"{name}.json"
            assert main(base + flags + ["--out", str(out)]) == 0
            assert out.read_text() == expected, name

    @pytest.mark.parametrize("command,bad", [
        *[(command, bad) for command in ("evaluate", "replay-npz")
          for bad in ("missing", "text", "bare", "fpga")],
        ("replay-store", "unknown-key"),
        ("replay-store", "fpga"),
    ])
    def test_refuses_in_one_line(self, command, bad, tmp_path, capsys):
        from repro.harness.leaderboard import PolicyStore

        bare, foreign = bare_and_foreign_files(tmp_path)
        text = tmp_path / "notes.txt"
        text.write_text("not a policy\n")
        paths = {"missing": tmp_path / "missing.npz", "text": text,
                 "bare": bare, "fpga": tmp_path / "fpga.npz"}
        store = PolicyStore(tmp_path / "store")
        store.save("f" * 64, foreign)
        keys = {"unknown-key": "0" * 64, "fpga": "f" * 64}
        if command == "evaluate":
            named = str(paths[bad])
            argv = ["evaluate", "--traces", "1", "--policy", named]
        elif command == "replay-npz":
            named = str(paths[bad])
            argv = ["replay", "--offline", "--policy-npz", named]
        else:
            named = keys[bad]
            argv = ["replay", "--offline", "--policy-store", named,
                    "--policy-dir", str(store.root)]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert named in captured.err
        assert "Traceback" not in captured.err


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

    @pytest.mark.parametrize("bad", ["object", "missing", "directory"])
    def test_refused_convert_writes_no_out(self, bad, tmp_path, capsys):
        """An existing --out keeps its bytes and a new one is not
        created: the output replaces --out only once every job is read."""
        from repro.harness.experiments import quick_scenario
        from repro.workload.traces import save_trace

        inputs = {"object": tmp_path / "object.json",
                  "missing": tmp_path / "missing.json",
                  "directory": tmp_path / "empty"}
        inputs["object"].write_text('{"jobs": []}\n')
        inputs["directory"].mkdir()
        kept = tmp_path / "kept.jsonl"
        save_trace(quick_scenario().trace(1000), str(kept))
        before = kept.read_bytes()
        new = [tmp_path / "new.jsonl.gz", tmp_path / "new.json"]
        for out in [kept, *new]:
            assert main(["trace", "convert", "--input", str(inputs[bad]),
                         "--out", str(out)]) == 2
        assert kept.read_bytes() == before
        assert not any(out.exists() for out in new)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(p.name for p in [kept, *inputs.values()] if p.exists())

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

    def test_streamed_import_without_jobs_keeps_out(self, tmp_path, capsys):
        """An archive without a usable record is refused before --out
        is opened, so an existing --out keeps its bytes."""
        swf = tmp_path / "unusable.swf"
        swf.write_text("1 100 10 -1 4 -1 -1 4 100 -1 1 1 1 -1 1 1 -1 -1\n")
        out = tmp_path / "kept.jsonl"
        out.write_text("kept\n")
        assert main(["trace", "import", "--stream", "--format", "swf",
                     "--input", str(swf), "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.read_text() == "kept\n"

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
