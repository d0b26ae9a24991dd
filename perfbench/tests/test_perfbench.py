"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced through the real
command. The runs must emit every metric with its unit, pass their
oracles, and -- traced -- record a span for every per-layer metric of
the layers the workload exercises. Per-layer counts are per round, so a
longer budget must not change them. One test seeds an oracle mismatch
and requires a non-zero exit, so the gate is shown able to fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

#: Spans each workload must record in its traced run.
EXERCISED = {
    "train": ("workload.generate_trace", "sim.init", "sim.advance_tick",
              "sim.metrics", "core.slot_views", "core.encode_batch",
              "core.mask_batch", "core.step_dynamics", "core.imitation",
              "core.validate", "rl.collect", "rl.act_batch",
              "rl.value_predict", "rl.ppo_update", "nn.forward",
              "nn.backward", "nn.adam_step"),
    "sweep": ("workload.generate_trace", "ingest.normalize", "sim.init",
              "sim.advance_tick", "sim.metrics", "baselines.schedule",
              "harness.fingerprint", "harness.cache_get",
              "harness.cache_put", "harness.cell"),
    "serve": ("serve.frame", "serve.submit", "serve.advance_to",
              "serve.checkpoint", "serve.snapshot", "serve.checkpoint_write",
              "serve.drain", "sim.advance_tick", "sim.fast_forward",
              "sim.metrics", "baselines.schedule"),
    "archive": ("ingest.read_swf", "ingest.normalize", "ingest.save_shards",
                "harness.plan_windows", "harness.cell", "harness.merge",
                "sim.init", "sim.advance_tick", "sim.fast_forward",
                "baselines.schedule"),
}

#: Counters each workload must report non-zero.
COUNTED = {
    "train": ("rl.env_steps",),
    "sweep": ("harness.cache_hits", "harness.cache_misses",
              "harness.cache_bytes_written"),
    "serve": ("serve.checkpoint_bytes", "serve.submit.calls"),
    "archive": ("ingest.records", "ingest.jobs", "sim.fast_forwarded_ticks"),
}


def bench(workload, trace, seed=3, cwd=ROOT, seconds=0.1):
    """Run the command at tiny size; returns (exit code, result line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def result_file(workload, trace, seed=3):
    suffix = "trace" if trace else "e2e"
    path = HERE / "out" / f"result-{workload}-seed{seed}-{suffix}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, line, done = bench(workload, trace=0)
    assert code == 0, done.stdout + done.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {k: m["unit"] for k, m in line["metrics"].items()} == run.END_TO_END
    for m in line["metrics"].values():
        assert m["value"] > 0
    res = result_file(workload, 0)
    prov = res["provenance"]
    for key in ("commit", "dirty", "source_sha256", "python", "numpy", "blas",
                "blas_threads", "affinity", "cpu_count", "seed", "sizes"):
        assert key in prov
    assert set(prov["blas_threads"].values()) == {"1"}
    assert res["figures"]["error_rate"] == 0.0


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_spans_every_layer_it_exercises(workload):
    code, line, done = bench(workload, trace=1)
    assert code == 0, done.stdout + done.stderr
    assert line["correct"] is True
    assert {k: m["unit"] for k, m in line["metrics"].items()} == \
        run.per_layer_metrics()
    res = result_file(workload, 1)
    summary = res["layer_summary"]
    spans = summary["spans"]
    for name in EXERCISED[workload]:
        assert spans.get(name, {}).get("calls", 0) > 0, name
    for name in COUNTED[workload]:
        assert summary["layers"][name] > 0, name
    assert all(s["self_s"] >= 0 and s["self_ref_s"] >= 0
               for s in spans.values())
    assert summary["self_sum_s"] <= summary["wall_s"]
    assert "tracing_overhead_pct" in summary
    assert summary["kernel_in_flight"]["running_max"] > 0
    expected = {name for metrics in LAYER_METRICS.values()
                for name, _ in metrics}
    assert set(summary["layers"]) == expected
    trace = json.loads((ROOT / res["trace_file"]).read_text())
    assert trace["traceEvents"] and trace["traceEvents"][0]["ph"] == "X"


def test_per_layer_counts_do_not_depend_on_the_budget():
    lines = [bench("sweep", trace=1, seconds=seconds)[1]
             for seconds in (0.1, 3)]
    assert result_file("sweep", 1)["layer_summary"]["rounds"] > 1
    counts = [{k: m["value"] for k, m in line["metrics"].items()
               if m["unit"] in ("count", "B")} for line in lines]
    assert counts[0] == counts[1]
    assert counts[0]["harness.cache_hits"] > 0


def test_every_span_metric_is_exercised_by_some_workload():
    spans = {name.rpartition(".")[0] for metrics in LAYER_METRICS.values()
             for name, _ in metrics
             if name.endswith((".self_s", ".calls"))}
    covered = {s for names in EXERCISED.values() for s in names}
    assert spans <= covered


def test_oracle_mismatch_exits_nonzero(monkeypatch, capsys):
    import repro.serve

    monkeypatch.setattr(repro.serve, "batch_reference",
                        lambda *a, **k: "not the served metrics\n")
    code = run.main(["--workload", "serve", "--seed", "3", "--seconds", "0.1",
                     "--size", "tiny"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(EXERCISED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_metrics()
    assert spec["paths"] == [HERE.name]


def test_inputs_derive_from_the_seed(tmp_path):
    from workloads import WORKLOADS, derive

    assert derive(5, "serve.trace") == derive(5, "serve.trace")
    assert derive(5, "serve.trace") != derive(6, "serve.trace")
    payloads = []
    for _ in range(2):
        serve = WORKLOADS["serve"](5, "tiny", str(tmp_path))
        serve.setup()
        payloads.append(json.dumps(serve.traces))
    assert payloads[0] == payloads[1]
