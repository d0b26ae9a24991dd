"""Sharded parallel evaluation + persistent result cache.

The acceptance properties of the parallel subsystem:

* aggregated sweep rows are byte-identical for workers in {1, 2, 4};
* the cache serves hits across runs, recomputes on any input change
  (invalidation is by key construction), and a warm cache executes zero
  cells;
* a crash inside a worker surfaces in the parent as a
  :class:`~repro.harness.parallel.CellFailure` naming the cell;
* unpicklable factories are rejected up front with a clear error when
  ``workers > 1`` (they remain fine serially);
* a script read from stdin, whose ``__main__`` spawn children cannot
  re-import, runs its pool cells in process, with one warning.

The ``backend`` argument is pinned in ``test_executor.py``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import EDFScheduler, baseline_roster
from repro.core import CoreConfig
from repro.harness import (
    BaselineFactory,
    CellFailure,
    EvalCell,
    FixedScheduler,
    ResultCache,
    Scenario,
    evaluate_grid,
    fingerprint,
    run_cells,
    standard_scenario,
    sweep_schedulers,
)
from repro.harness.parallel import _failure_error, _run_batch, cell_key
from repro.workload.classes import JobClass
from repro.workload.generator import WorkloadConfig


def small_scenario(load: float = 0.6) -> Scenario:
    """Cheap scenario so spawn startup dominates, not simulation."""
    return standard_scenario(
        load=load, horizon=20, cpu_capacity=8, gpu_capacity=4,
        core=CoreConfig(queue_slots=3, running_slots=2, horizon=6),
        max_ticks=80)


def broken_scenario() -> Scenario:
    """Trace generation raises: the only job class runs on no platform."""
    from repro.sim.platform import Platform

    cls = JobClass(name="orphan", mix_weight=1.0, work_lognorm=(2.0, 0.5),
                   parallelism_range=(1, 2), serial_fraction=0.1,
                   affinity={"tpu": 1.0})
    return Scenario(platforms=[Platform("cpu", 8, 1.0)],
                    workload=WorkloadConfig(classes=[cls], horizon=10),
                    load=0.5, max_ticks=50)


SCHEDULERS = {"edf": BaselineFactory("edf"), "fifo": BaselineFactory("fifo")}


def small_cells():
    scenario = small_scenario()
    return [
        EvalCell("base", scenario, name, SCHEDULERS[name],
                 trace_index=i, trace_seed=1000 + i, max_ticks=80)
        for name in ("edf", "fifo") for i in range(2)
    ]


def rows_bytes(rows) -> str:
    return json.dumps(rows, sort_keys=True)


#: Read by ``python -`` in a subprocess: one scheduler on two traces of
#: the small scenario, at workers 2 then 1; prints both report lists.
_STDIN_GRID = """\
import dataclasses, json
from repro.core import CoreConfig
from repro.harness import BaselineFactory, evaluate_grid, standard_scenario

scenario = standard_scenario(
    load=0.6, horizon=20, cpu_capacity=8, gpu_capacity=4,
    core=CoreConfig(queue_slots=3, running_slots=2, horizon=6), max_ticks=80)
print(json.dumps([
    [repr(dataclasses.astuple(report)) for report in evaluate_grid(
        {"base": scenario}, {"edf": BaselineFactory("edf")}, n_traces=2,
        workers=workers)[("base", "edf")]]
    for workers in (2, 1)]))
"""


class TestParallelMatchesSerial:
    def test_rows_byte_identical_across_worker_counts(self):
        scenarios = {"base": small_scenario()}
        reference = None
        for workers in (1, 2, 4):
            rows = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                    workers=workers)
            if reference is None:
                reference = rows_bytes(rows)
            assert rows_bytes(rows) == reference, f"workers={workers} diverged"

    def test_run_cells_preserves_cell_order(self):
        cells = small_cells()
        serial = run_cells(cells, workers=1)
        parallel = run_cells(cells, workers=2)
        assert [r.miss_rate for r in serial] == [r.miss_rate for r in parallel]
        assert [r.mean_slowdown for r in serial] == \
            [r.mean_slowdown for r in parallel]

    def test_lambda_factories_still_work_serially(self):
        rows = sweep_schedulers({"base": small_scenario()},
                                {"edf": lambda s: EDFScheduler()}, n_traces=1)
        assert len(rows) == 1

    def test_unpicklable_factory_rejected_with_workers(self):
        with pytest.raises(ValueError, match="picklable"):
            sweep_schedulers({"base": small_scenario()},
                             {"edf": lambda s: EDFScheduler()},
                             n_traces=2, workers=2)

    def test_each_pool_batch_pickled_once(self, monkeypatch):
        """The parent pickles each batch once and ships those bytes: 12
        cells on 2 workers make 6 batches of 2, so 6 ``pickle.dumps``
        calls (one per cell would be 12), and the reports are those of
        the in-process loop."""
        import pickle

        scenario = small_scenario()
        cells = [EvalCell("base", scenario, name, SCHEDULERS[name],
                          trace_index=i, trace_seed=1000 + i, max_ticks=80)
                 for name in ("edf", "fifo") for i in range(6)]
        calls = [0]
        dumps = pickle.dumps

        def counted(*args, **kwargs):
            calls[0] += 1
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counted)
        pooled = run_cells(cells, workers=2)
        monkeypatch.undo()
        assert calls[0] == 6
        assert pooled == run_cells(cells, workers=1)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells([], workers=0)

    def test_stdin_script_runs_pool_cells_in_process(self, tmp_path):
        """``python -`` names a ``__main__`` file that does not exist, so
        spawn children could not start: a 2-cell grid at ``workers=2``
        runs in process with one RuntimeWarning, and its reports are
        those of ``workers=1``."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.path.abspath(src)
        done = subprocess.run(
            [sys.executable, "-"], input=_STDIN_GRID, cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120, check=True)
        assert done.stderr.count("RuntimeWarning") == 1, done.stderr
        assert "running evaluation cells serially" in done.stderr
        pooled, serial = json.loads(done.stdout)
        assert len(pooled) == 2 and pooled == serial


class TestEvaluateGrid:
    def test_keys_scenario_then_scheduler_results_in_seed_order(self):
        from repro.core.training import evaluate_scheduler

        scenarios = {"b": small_scenario(0.5), "a": small_scenario(0.8)}
        schedulers = {"fifo": SCHEDULERS["fifo"], "edf": SCHEDULERS["edf"]}
        grid = evaluate_grid(scenarios, schedulers, n_traces=2, base_seed=7)
        assert list(grid) == [("b", "fifo"), ("b", "edf"),
                              ("a", "fifo"), ("a", "edf")]
        for (scen_name, sched_name), reports in grid.items():
            scenario = scenarios[scen_name]
            expected = evaluate_scheduler(
                schedulers[sched_name](scenario), scenario.platforms,
                scenario.traces(2, base_seed=7), max_ticks=scenario.max_ticks)
            assert [r.as_dict() for r in reports] == \
                [r.as_dict() for r in expected]

    def test_fixed_scheduler_gives_each_cell_a_fresh_copy(self):
        """Each cell runs its own copy of the wrapped instance, so the
        ``random`` baseline's RNG restarts on every trace, like a fresh
        instance per trace of a loop over evaluate_scheduler."""
        from repro.baselines import RandomScheduler
        from repro.core.training import evaluate_scheduler

        factory = FixedScheduler(RandomScheduler(seed=3))
        scenarios = {"low": small_scenario(0.5), "high": small_scenario(0.9)}
        assert factory(scenarios["low"]) is not factory.scheduler
        grid = evaluate_grid(scenarios, {"random": factory}, n_traces=2)
        for name, scenario in scenarios.items():
            expected = [
                evaluate_scheduler(RandomScheduler(seed=3), scenario.platforms,
                                   [trace], max_ticks=scenario.max_ticks)[0]
                for trace in scenario.traces(2)]
            assert [r.as_dict() for r in grid[(name, "random")]] == \
                [r.as_dict() for r in expected]


    @pytest.mark.parametrize("kind", ["fuzz", "window"])
    def test_max_ticks_reaches_scenarios_that_evaluate_their_own_cells(
            self, kind, tmp_path):
        """The override is part of every cell's key, so a scenario with
        an ``evaluate_segment`` hook must simulate it too: its grid at
        ``max_ticks=5`` is the grid of the same scenario whose own budget
        is 5."""
        import dataclasses

        from repro.harness.library import plan_trace_windows
        from repro.sim.metrics import merge_segments
        from repro.workload.fuzz.scenario import scenario_from_knobs
        from repro.workload.fuzz.space import default_space
        from repro.workload.traces import save_trace

        if kind == "fuzz":
            space = default_space()
            scenario = scenario_from_knobs(space.decode(space.sample(0, 0, 0)))
        else:
            path = str(tmp_path / "trace.json")
            save_trace(small_scenario().trace(0), path)
            scenario = plan_trace_windows(path, 50)[0]

        def report(scen, **kw):
            [result] = evaluate_grid({kind: scen}, {"edf": SCHEDULERS["edf"]},
                                     n_traces=1, **kw)[(kind, "edf")]
            if kind == "window":
                result = merge_segments([result])
            return result.as_dict()

        short = report(dataclasses.replace(scenario, max_ticks=5))
        assert report(scenario, max_ticks=5) == short
        assert report(scenario) != short


class TestCache:
    def test_miss_then_hit_and_zero_recompute(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        scenarios = {"base": small_scenario()}
        rows_cold = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                     cache=cache)
        assert cache.stats == {"hits": 0, "misses": 4, "evictions": 0}
        assert len(cache) == 4

        # Warm run: every cell served from disk, no simulation executed.
        import repro.harness.parallel as par

        def boom(cell, trace):  # pragma: no cover - fails the test if called
            raise AssertionError("cell executed despite warm cache")

        monkeypatch.setattr(par, "run_cell", boom)
        rows_warm = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                     cache=cache)
        assert cache.stats["hits"] == 4
        assert rows_bytes(rows_warm) == rows_bytes(rows_cold)

    def test_cache_rows_match_uncached(self, tmp_path):
        scenarios = {"base": small_scenario()}
        plain = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2)
        cached = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                  cache=ResultCache(tmp_path / "c"))
        replayed = sweep_schedulers(scenarios, SCHEDULERS, n_traces=2,
                                    cache=ResultCache(tmp_path / "c"))
        assert rows_bytes(plain) == rows_bytes(cached) == rows_bytes(replayed)

    @pytest.mark.parametrize("change", ["load", "max_ticks", "engine",
                                        "seed", "scheduler"])
    def test_any_input_change_invalidates(self, tmp_path, change):
        cache = ResultCache(tmp_path / "cache")
        sweep_schedulers({"base": small_scenario()}, {"edf": SCHEDULERS["edf"]},
                         n_traces=1, cache=cache)
        assert cache.stats == {"hits": 0, "misses": 1, "evictions": 0}

        scenarios = {"base": small_scenario()}
        kwargs = dict(n_traces=1, cache=cache)
        schedulers = {"edf": SCHEDULERS["edf"]}
        if change == "load":
            scenarios = {"base": small_scenario(load=0.9)}
        elif change == "max_ticks":
            kwargs["max_ticks"] = 60
        elif change == "engine":
            scenarios = {"base": small_scenario().with_engine("event")}
        elif change == "seed":
            kwargs["base_seed"] = 2000
        elif change == "scheduler":
            schedulers = {"edf": BaselineFactory("edf", parallelism="min")}
        sweep_schedulers(scenarios, schedulers, **kwargs)
        assert cache.stats == {"hits": 0, "misses": 2, "evictions": 0}

    def test_scheduler_name_alone_does_not_mask_params(self):
        """Two factories with the same display name but different params
        must produce different keys (the instantiated scheduler is part
        of the fingerprint)."""
        scenario = small_scenario()
        a = EvalCell("s", scenario, "edf", BaselineFactory("edf"),
                     0, 1000, 80)
        b = EvalCell("s", scenario, "edf",
                     BaselineFactory("edf", platform_choice="blind"),
                     0, 1000, 80)
        assert cell_key(a) != cell_key(b)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scenario = small_scenario()
        cell = EvalCell("s", scenario, "edf", SCHEDULERS["edf"], 0, 1000, 80)
        key = cell_key(cell)
        run_cells([cell], cache=cache)
        path = cache._path(key)
        assert path.exists()
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_cells([EvalCell("s", small_scenario(), "edf", SCHEDULERS["edf"],
                            0, 1000, 80)], cache=cache)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestFingerprint:
    def test_deterministic_and_structural(self):
        a = small_scenario()
        b = small_scenario()
        assert a is not b
        assert fingerprint(a) == fingerprint(b)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_fields(self):
        assert small_scenario().fingerprint() != \
            small_scenario(load=0.7).fingerprint()

    def test_dict_order_independent(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_ndarray_content(self):
        x = np.arange(4.0)
        y = np.arange(4.0)
        z = np.arange(4.0) + 1e-9
        assert fingerprint(x) == fingerprint(y)
        assert fingerprint(x) != fingerprint(z)

    def test_plain_function_keys_by_name(self):
        assert fingerprint(small_scenario) == fingerprint(small_scenario)
        assert fingerprint(small_scenario) != fingerprint(np.arange)

    def test_callable_with_attributes_is_refused(self):
        def factory():
            return None

        factory.seed = 3
        with pytest.raises(TypeError, match="function 'TestFingerprint"):
            fingerprint({"factory": factory})

    def test_bound_method_is_refused(self):
        # By name alone, differently configured instances would share
        # a key.
        from repro.baselines import EDFScheduler

        with pytest.raises(TypeError, match="bound method .* of a "
                                            "repro.baselines.*EDFScheduler"):
            fingerprint(EDFScheduler("best", "fit", 0).schedule)

    def test_object_keyed_only_by_its_dict_is_refused(self):
        class Knobs:
            def __init__(self):
                self.load = 0.5

        with pytest.raises(TypeError, match="test_parallel.*Knobs"):
            fingerprint([Knobs()])

    def test_object_keyed_only_by_its_repr_is_refused(self):
        with pytest.raises(TypeError, match="builtins.complex"):
            fingerprint(1 + 2j)

    def test_used_scheduler_fingerprints_like_fresh(self):
        """A scheduler that has already evaluated traces (consumed RNG,
        warmed memo caches) must keep its cache key — otherwise every
        re-run in the same session misses."""
        from repro.baselines import RandomScheduler
        from repro.core.training import evaluate_scheduler

        scenario = small_scenario()
        used = RandomScheduler(seed=5)
        before = fingerprint(used)
        assert before == fingerprint(RandomScheduler(seed=5))
        assert before != fingerprint(RandomScheduler(seed=6))
        evaluate_scheduler(used, scenario.platforms, [scenario.trace(1000)],
                           max_ticks=40)
        assert fingerprint(used) == before

    def test_used_drl_scheduler_fingerprints_like_fresh(self):
        from repro.core import DRLScheduler
        from repro.core.training import evaluate_scheduler
        from repro.rl.policies import CategoricalPolicy

        scenario = small_scenario()
        env = scenario.eval_env(scenario.traces(1), seed=0)
        policy = CategoricalPolicy.for_sizes(
            env.encoder.obs_dim, env.actions.n, (16,),
            np.random.default_rng(0))
        sched = DRLScheduler(policy, scenario.core,
                             [p.name for p in scenario.platforms], greedy=True)
        before = fingerprint(sched)
        evaluate_scheduler(sched, scenario.platforms, [scenario.trace(1000)],
                           max_ticks=40)
        assert fingerprint(sched) == before
        # ... but changed weights must change the key.
        policy.net.params()[0][:] += 1.0
        assert fingerprint(sched) != before


class TestBaselineFactory:
    @pytest.mark.parametrize("params", [("best", "fit", 0), ("blind", "min", 3)],
                             ids=["default", "blind-min-seed3"])
    @pytest.mark.parametrize("name", list(baseline_roster()))
    def test_fingerprints_like_the_roster_entry(self, name, params):
        # Cache keys fingerprint the built scheduler, so a factory that
        # builds one class must key exactly as the roster instance did.
        built = BaselineFactory(name, *params)(small_scenario())
        assert fingerprint(built) == fingerprint(baseline_roster(*params)[name])

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(KeyError, match="unknown baseline 'nope'; "
                                           "choose from \\['edf', "):
            BaselineFactory("nope")(small_scenario())


class TestCrashSurfacing:
    def test_serial_crash_names_the_cell(self):
        cells = [EvalCell("broken", broken_scenario(), "edf",
                          SCHEDULERS["edf"], 0, 1000, 50)]
        with pytest.raises(CellFailure, match="scenario='broken'"):
            run_cells(cells, workers=1)

    def test_worker_crash_names_the_cell_and_carries_traceback(self):
        # Two cells so the pool path is exercised (one healthy, one broken).
        cells = [
            EvalCell("ok", small_scenario(), "edf", SCHEDULERS["edf"],
                     0, 1000, 80),
            EvalCell("broken", broken_scenario(), "edf", SCHEDULERS["edf"],
                     0, 1000, 50),
        ]
        with pytest.raises(CellFailure) as excinfo:
            run_cells(cells, workers=2)
        msg = str(excinfo.value)
        assert "scenario='broken'" in msg
        assert "worker traceback" in msg
        assert "ValueError" in msg

    def test_successful_cells_cached_despite_failure(self, tmp_path):
        """One bad cell must not discard the batch: completed cells are
        written to the cache before the failure surfaces, so a retry
        only pays for what never finished."""
        cache = ResultCache(tmp_path / "cache")
        good = EvalCell("ok", small_scenario(), "edf", SCHEDULERS["edf"],
                        0, 1000, 80)
        bad = EvalCell("broken", broken_scenario(), "edf", SCHEDULERS["edf"],
                       0, 1000, 50)
        with pytest.raises(CellFailure):
            run_cells([good, bad], workers=1, cache=cache)
        assert len(cache) == 1
        assert cache.get(cell_key(good)) is not None

        # A trace that fails to build fails every cell naming it, each
        # under its own identity; the cells between them still run and
        # are cached.
        broken = broken_scenario()
        cells = [
            EvalCell("broken", broken, "edf", SCHEDULERS["edf"], 0, 1000, 50),
            EvalCell("ok", good.scenario, "fifo", SCHEDULERS["fifo"],
                     0, 1000, 80),
            EvalCell("broken", broken, "fifo", SCHEDULERS["fifo"],
                     0, 1000, 50),
            EvalCell("ok", good.scenario, "edf", SCHEDULERS["edf"],
                     1, 1001, 80),
        ]
        outcomes = _run_batch(cells)
        assert [status for status, _ in outcomes] == ["err", "ok", "err", "ok"]
        for cell, outcome in zip(cells[::2], outcomes[::2]):
            message = str(_failure_error(outcome))
            assert cell.describe() in message
            assert "ValueError" in message
        with pytest.raises(CellFailure, match="scheduler='edf'"):
            run_cells(cells, workers=1, cache=cache)
        assert len(cache) == 3
        assert cache.get(cell_key(cells[1])) is not None
        assert cache.get(cell_key(cells[3])) is not None
