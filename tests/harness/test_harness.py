"""Harness: scenario construction, results, tables, plots, sweeps."""

import numpy as np
import pytest

from repro.baselines import EDFScheduler, FIFOScheduler
from repro.harness import (
    ResultStore,
    Scenario,
    aggregate_rows,
    ascii_line_plot,
    format_table,
    rows_to_csv,
    standard_scenario,
    sweep_schedulers,
)
from repro.core import CoreConfig


@pytest.fixture
def scenario():
    return standard_scenario(load=0.6, horizon=20, cpu_capacity=8,
                             gpu_capacity=4,
                             core=CoreConfig(queue_slots=3, running_slots=2,
                                             horizon=6),
                             max_ticks=120)


class TestScenario:
    def test_traces_are_paired_by_seed(self, scenario):
        a = scenario.traces(2, base_seed=10)
        b = scenario.traces(2, base_seed=10)
        assert [len(t) for t in a] == [len(t) for t in b]
        assert all(x.work == y.work for x, y in zip(a[0], b[0]))

    def test_with_load_changes_only_load(self, scenario):
        heavier = scenario.with_load(1.2)
        assert heavier.load == 1.2
        assert heavier.platforms == scenario.platforms
        assert len(heavier.trace(0)) >= len(scenario.trace(0))

    def test_with_tightness_scales_deadlines(self, scenario):
        loose = scenario.with_tightness(3.0)
        t_base = scenario.trace(7)
        t_loose = loose.trace(7)
        rel_base = np.mean([j.deadline - j.arrival_time for j in t_base])
        rel_loose = np.mean([j.deadline - j.arrival_time for j in t_loose])
        assert rel_loose > rel_base

    def test_train_env_and_eval_env(self, scenario):
        env = scenario.train_env(seed=0)
        obs = env.reset()
        assert obs.shape == (env.encoder.obs_dim,)
        env2 = scenario.eval_env(scenario.traces(2), seed=0)
        env2.reset()
        first = {j.work for j in env2.sim.pending} | {j.work for j in env2.sim._future}
        env2.reset()
        env2.reset()   # cycles back? two traces => third reset is trace[0]
        again = {j.work for j in env2.sim.pending} | {j.work for j in env2.sim._future}
        assert first == again


class TestResults:
    def test_store_roundtrip(self, tmp_path):
        store = ResultStore()
        store.add_row("t1", {"a": 1, "b": np.float64(2.5)})
        store.add_rows("t1", [{"a": 2, "b": 3.0}])
        store.meta["seed"] = 7
        path = str(tmp_path / "res.json")
        store.save(path)
        loaded = ResultStore.load(path)
        assert loaded.get("t1")[0]["b"] == 2.5
        assert loaded.meta["seed"] == 7
        assert loaded.get("missing") == []

    def test_failed_save_leaves_previous_file(self, tmp_path):
        path = tmp_path / "res.json"
        good = ResultStore()
        good.add_row("t1", {"b": np.float64(2.5), "a": 1})
        good.save(str(path))
        before = path.read_bytes()
        # Rows keep their key order, one-space indent, no trailing newline.
        assert before == b'{\n "tables": {\n  "t1": [\n   {\n    "b": 2.5,' \
                         b'\n    "a": 1\n   }\n  ]\n },\n "meta": {}\n}'
        bad = ResultStore()
        bad.add_row("t1", {"a": object()})
        with pytest.raises(TypeError, match="object"):
            bad.save(str(path))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_aggregate_rows_mean_std(self):
        rows = [
            {"sched": "edf", "miss": 0.2},
            {"sched": "edf", "miss": 0.4},
            {"sched": "fifo", "miss": 0.8},
        ]
        agg = aggregate_rows(rows, group_by=["sched"])
        assert agg[0]["sched"] == "edf"
        assert agg[0]["miss"] == pytest.approx(0.3)
        assert agg[0]["miss_std"] == pytest.approx(0.1)
        assert agg[0]["n"] == 2
        assert agg[1]["sched"] == "fifo"

    def test_aggregate_empty(self):
        assert aggregate_rows([], group_by=["x"]) == []


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"name": "edf", "miss": 0.25}, {"name": "fifo", "miss": 0.5}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "miss" in lines[1]
        assert "0.250" in text and "0.500" in text

    def test_format_empty(self):
        assert "(empty)" in format_table([])

    def test_csv_emission(self):
        rows = [{"a": 1, "b": "x,y"}]
        csv = rows_to_csv(rows)
        assert csv.splitlines()[0] == "a,b"
        assert '"x,y"' in csv


class TestPlots:
    def test_plot_contains_markers_and_legend(self):
        text = ascii_line_plot({"up": [0, 1, 2, 3], "down": [3, 2, 1, 0]},
                               width=20, height=6, title="t")
        assert "t" in text
        assert "*=up" in text and "o=down" in text

    def test_plot_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_line_plot({})
        with pytest.raises(ValueError):
            ascii_line_plot({"a": []})

    def test_plot_flat_series_ok(self):
        text = ascii_line_plot({"flat": [1.0, 1.0, 1.0]}, width=10, height=4)
        assert "flat" in text


class TestSweeps:
    def test_sweep_schedulers_shape(self, scenario):
        rows = sweep_schedulers(
            {"base": scenario},
            {"edf": lambda s: EDFScheduler(),
             "fifo": lambda s: FIFOScheduler()},
            n_traces=2,
        )
        assert len(rows) == 2
        names = {r["scheduler"] for r in rows}
        assert names == {"edf", "fifo"}
        for row in rows:
            assert 0.0 <= row["miss_rate"] <= 1.0
            assert row["n"] == 2
