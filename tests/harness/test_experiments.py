"""Experiment entry points run at miniature sizes and produce sane output.

These are smoke + shape tests; the benchmark modules run the same
functions at their real (bench) sizes and EXPERIMENTS.md records those.
"""

import json

import numpy as np
import pytest

from repro.harness import experiments as E


def rows_json(out) -> str:
    return json.dumps(out.rows, sort_keys=True)


class TestFastExperiments:
    """No-training experiments — run at near-bench size."""

    def test_e03_load_sweep_monotone_for_fifo(self):
        out = E.e03_load_sweep(loads=(0.4, 1.2), n_traces=2)
        fifo_low = out.metric_by("load", 0.4, "miss_rate") if False else None
        fifo = [r for r in out.rows if r["scheduler"] == "fifo"]
        assert fifo[0]["miss_rate"] <= fifo[-1]["miss_rate"] + 0.05
        assert "E3" in out.text

    def test_e04_tightness_looser_is_easier(self):
        out = E.e04_tightness_sweep(scales=(0.8, 3.0), load=0.7, n_traces=2)
        edf = [r for r in out.rows if r["scheduler"] == "edf"]
        assert edf[-1]["miss_rate"] <= edf[0]["miss_rate"] + 0.05

    def test_e06_awareness_beats_blind(self):
        out = E.e06_heterogeneity(load=0.7, n_traces=3)
        aware = out.metric_by("scheduler", "edf-aware", "miss_rate")
        blind = out.metric_by("scheduler", "edf-blind", "miss_rate")
        assert aware <= blind + 0.05

    def test_e07_utilization_series_present(self):
        out = E.e07_utilization_timeline(load=0.8)
        assert set(out.series) == {"edf", "greedy-elastic"}
        assert all(0.0 <= u <= 1.0 for s in out.series.values() for u in s)

    def test_e10_scalability_rows(self):
        out = E.e10_scalability(sizes=((8, 2), (16, 4)), repeats=5)
        assert len(out.rows) == 2
        assert out.rows[1]["obs_dim"] == out.rows[0]["obs_dim"]  # same MDP dims
        assert all(r["decision_us"] > 0 for r in out.rows)

    def test_e11_elastic_advantage_nonincreasing_at_extremes(self):
        out = E.e11_speedup_sensitivity(sigmas=(0.0, 0.6), n_traces=2)
        adv = out.series["advantage"]
        assert adv[0] >= adv[-1] - 0.1   # advantage shrinks as sigma grows


class TestOneEvaluationGrid:
    """Experiments evaluate through one grid: a process pool reproduces
    the serial rows, and the serial grid reproduces a plain loop of
    evaluate_scheduler over each scheduler instance."""

    @pytest.mark.parametrize("run", [
        lambda w: E.e03_load_sweep(loads=(0.5, 1.1), n_traces=2, workers=w),
        lambda w: E.e04_tightness_sweep(scales=(0.8, 2.0), n_traces=2,
                                        workers=w),
        lambda w: E.e06_heterogeneity(n_traces=2, workers=w),
        lambda w: E.e16_extended_baselines(loads=(1.1,), n_traces=2,
                                           workers=w),
    ], ids=["e03", "e04", "e06", "e16"])
    def test_pool_rows_equal_serial_rows(self, run):
        assert rows_json(run(2)) == rows_json(run(1))

    def test_e02_equals_serial_scheduler_loop(self):
        from repro.baselines import baseline_roster
        from repro.core import evaluate_scheduler

        out = E.e02_main_table(n_traces=2, include_drl=False)
        scenario = E.quick_scenario(load=0.7)
        traces = scenario.traces(2)
        expected = []
        for name in baseline_roster():
            # A fresh roster instance per trace: every cell starts the
            # random row's RNG from its seed.
            reports = [evaluate_scheduler(baseline_roster()[name],
                                          scenario.platforms, [trace],
                                          max_ticks=scenario.max_ticks)[0]
                       for trace in traces]
            expected.append({"scheduler": name, **{
                m: float(np.mean([getattr(r, m) for r in reports]))
                for m in ("miss_rate", "mean_slowdown", "mean_tardiness",
                          "mean_utilization")}})
        expected.sort(key=lambda r: r["miss_rate"])
        assert "random" in [r["scheduler"] for r in expected]
        assert rows_json(out) == json.dumps(expected, sort_keys=True)
        assert out.text.splitlines()[0] == "E2: main comparison (load=0.7)"


class TestScenarioPlumbing:
    """--scenario reaches e02/e03: DRL-era experiments on real traces."""

    def scenario(self):
        from tests.harness.test_library import small_trace_scenario

        return small_trace_scenario()

    def test_e02_accepts_scenario_instance(self):
        out = E.e02_main_table(n_traces=1, include_drl=False,
                               scenario=self.scenario())
        assert len(out.rows) >= 5
        assert all("miss_rate" in r for r in out.rows)

    def test_e02_accepts_registry_name(self):
        out = E.e02_main_table(n_traces=1, include_drl=False,
                               scenario="quick")
        assert out.rows

    def test_e02_titles_a_passed_scenario_by_its_own_load(self):
        # The function's ``load`` argument (0.7) only picks the default
        # scenario; a passed scenario without ``source`` names its own.
        out = E.e02_main_table(n_traces=1, include_drl=False,
                               scenario=E.quick_scenario(load=1.3))
        assert out.text.splitlines()[0] == "E2: main comparison (load=1.3)"

    def test_e03_sweeps_trace_backed_scenario(self):
        from repro.baselines import EDFScheduler

        out = E.e03_load_sweep(loads=(0.5, 0.9), n_traces=1,
                               schedulers={"edf": EDFScheduler()},
                               scenario=self.scenario())
        assert [r["load"] for r in out.rows] == [0.5, 0.9]

    def test_e03_sweeps_synthetic_registry_scenario(self):
        from repro.baselines import EDFScheduler

        out = E.e03_load_sweep(loads=(0.5, 1.0), n_traces=1,
                               schedulers={"edf": EDFScheduler()},
                               scenario="quick")
        assert [r["load"] for r in out.rows] == [0.5, 1.0]

    def test_e03_rejects_pinned_traces(self, tmp_path):
        from repro.workload.traces import save_trace

        path = tmp_path / "pinned.json"
        save_trace(self.scenario().trace(1000), str(path))
        with pytest.raises(ValueError, match="with_target_load"):
            E.e03_load_sweep(loads=(0.5,), scenario=str(path))


@pytest.mark.slow
class TestTrainingExperiments:
    """Tiny-budget versions of the training experiments (still < ~1 min each)."""

    def test_e01_training_curve_shape(self):
        out = E.e01_training_curve(iterations=4, eval_every=2, n_eval_traces=1)
        assert len(out.rows) == 2
        assert len(out.series["return"]) == 2

    def test_e02_main_table_includes_all(self):
        out = E.e02_main_table(train_iterations=2, n_traces=2)
        names = {r["scheduler"] for r in out.rows}
        assert "drl" in names and "edf" in names
        assert len(out.rows) == 8

    def test_e05_ablation_rows(self):
        out = E.e05_elasticity_ablation(loads=(0.7,), train_iterations=2,
                                        n_traces=1)
        variants = {r["variant"] for r in out.rows}
        assert "drl-elastic" in variants and "drl-rigid" in variants

    def test_e12_algorithms_tiny(self):
        out = E.e12_algorithms(algos=("reinforce", "ppo"), iterations=2)
        assert len(out.rows) == 2
        assert all("final_return" in r for r in out.rows)
