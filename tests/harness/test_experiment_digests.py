"""Frozen experiment rows: the oracle for how each experiment evaluates.

Heuristic-only experiments are pinned at their defaults: one SHA-256
over ``json.dumps({"rows": ..., "series": ...}, sort_keys=True)`` of
the experiment's output. e07's digest covers its utilization series,
e13's its preemption counts, e14's its energy columns and e15's its
graph miss rates.

Trained experiments are checked at a one- or two-iteration budget: their
rows must equal a plain loop of ``evaluate_scheduler`` over the policies
the experiment trained (recorded as it trains them) and fresh
heuristics, on the experiment's own traces. Trained floats are never
frozen here, since trained weights follow the host's BLAS kernel.

The digests were frozen under the numpy version pinned in
``requirements-ci.txt``: a mismatch is a behaviour change, never a
digest to regenerate.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from repro.baselines import (
    AdmissionControlScheduler,
    EDFScheduler,
    GreedyElasticScheduler,
)
from repro.core import DRLScheduler, RewardWeights, evaluate_scheduler
from repro.harness import experiments as E
from repro.rl import PPOAgent

#: experiment -> digest of its rows and series at its defaults.
DIGESTS = {
    "e07_utilization_timeline":
        "e3cf13d5dd4d7cdad98207dff280f010c58967970be5b1a83bae89cdadc37c4d",
    "e11_speedup_sensitivity":
        "612d61d0a420634ad42b5224fb1164da25fd012f8c9f29eca6daf830669eecde",
    "e13_fault_robustness":
        "fa2806fc7e585c47dbe8d9a5cee1b6b2ed9204354b773972be220f5668957bde",
    "e14_energy":
        "335b814fd676dc2160f779a4cf25eeeca79684015576ddeb731401fbae8c913e",
    "e15_dag_workloads":
        "2eb089d1b82ead9ead9e45028fb4fef1c9b983646b890d418a264c9bb8232c75",
}

METRICS = ("miss_rate", "mean_slowdown", "mean_tardiness", "mean_utilization")


def digest(out) -> str:
    blob = json.dumps({"rows": out.rows, "series": out.series},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def rows_json(rows) -> str:
    return json.dumps(rows, sort_keys=True)


def reference(sched, scenario, traces, **extra):
    """One row's metrics: ``evaluate_scheduler`` over ``traces``."""
    reports = evaluate_scheduler(sched, scenario.platforms, traces,
                                 max_ticks=scenario.max_ticks)
    row = {m: float(np.mean([getattr(r, m) for r in reports]))
           for m in METRICS}
    for column, attr in extra.items():
        row[column] = float(np.mean([getattr(r, attr) for r in reports]))
    return row


@pytest.mark.parametrize("name", list(DIGESTS))
def test_heuristic_rows_frozen(name):
    out = getattr(E, name)()
    assert out.rows
    assert digest(out) == DIGESTS[name], (
        f"{name} rows moved under numpy {np.__version__}: an experiment "
        "result changed")


@pytest.fixture
def trained(monkeypatch):
    """The policy each ``train_drl`` call of the experiment returned,
    looked up by the scenario it trained on (a copy taken at once)."""
    policies = []
    real = E.train_drl

    def recording(scenario, *args, **kwargs):
        sched = real(scenario, *args, **kwargs)
        policies.append((scenario, copy.deepcopy(sched)))
        return sched

    monkeypatch.setattr(E, "train_drl", recording)

    def lookup(scenario):
        found = [sched for trained_on, sched in policies
                 if trained_on == scenario]
        assert len(found) == 1, "expected one training per scenario"
        return found[0]

    return lookup


def test_e01_rows_equal_reference_loop():
    out = E.e01_training_curve(iterations=2, eval_every=1, n_eval_traces=2)
    scenario = E.quick_scenario(load=0.7)
    env = scenario.eval_env(scenario.traces(8, base_seed=500), seed=0)
    agent = PPOAgent(env.encoder.obs_dim, env.actions.n, E._ppo_config(),
                     np.random.default_rng(0))
    traces = scenario.traces(2)
    expected = []
    for iteration in (1, 2):
        history = agent.train(env, iterations=1, episodes_per_iter=4,
                              max_steps=10_000)
        sched = DRLScheduler(agent.policy, env.config,
                             [p.name for p in scenario.platforms],
                             greedy=True)
        expected.append({
            "iteration": iteration,
            "episode_return": float(np.mean(
                [h["episode_return"] for h in history])),
            "miss_rate": reference(sched, scenario, traces)["miss_rate"],
        })
    assert rows_json(out.rows) == rows_json(expected)
    assert out.series["miss_rate"] == [r["miss_rate"] for r in expected]


def test_e05_rows_equal_reference_loop(trained):
    out = E.e05_elasticity_ablation(loads=(0.6,), train_iterations=1,
                                    n_traces=2)
    elastic = E.quick_scenario(load=0.6, elastic=True)
    rigid = E.quick_scenario(load=0.6, elastic=False)
    traces = elastic.traces(2)
    variants = [
        ("edf-rigid(min)", EDFScheduler(parallelism="min"), rigid),
        ("edf-fit", EDFScheduler(parallelism="fit"), elastic),
        ("greedy-elastic", GreedyElasticScheduler(), elastic),
        ("drl-rigid", trained(rigid), rigid),
        ("drl-elastic", trained(elastic), elastic),
    ]
    expected = [{"load": 0.6, "variant": name,
                 **reference(sched, scenario, traces)}
                for name, sched, scenario in variants]
    assert rows_json(out.rows) == rows_json(expected)


def test_e08_rows_equal_reference_loop(trained):
    variants = {
        "+miss": RewardWeights(slowdown=0.05, miss=1.0, tardiness=0.0,
                               utilization=0.0),
        "full": E.DEFAULT_REWARD,
    }
    out = E.e08_reward_ablation(train_iterations=1, n_traces=2,
                                variants=variants)
    expected = []
    for name, weights in variants.items():
        scenario = E.quick_scenario(load=0.9, reward=weights)
        expected.append({"reward": name, **reference(
            trained(scenario), scenario, scenario.traces(2))})
    assert rows_json(out.rows) == rows_json(expected)


def test_e09_rows_equal_reference_loop(trained):
    out = E.e09_generalization(eval_loads=(0.5, 1.0), train_iterations=1,
                               n_traces=2)
    drl = trained(E.quick_scenario(load=0.7))
    expected = []
    for load in (0.5, 1.0):
        scenario = E.quick_scenario(load=load)
        traces = scenario.traces(2, base_seed=3000)
        for name, sched in [("drl", drl), ("edf", EDFScheduler())]:
            expected.append({"eval_load": load, "scheduler": name,
                             **reference(sched, scenario, traces)})
    assert rows_json(out.rows) == rows_json(expected)
    assert out.series["drl"] == [r["miss_rate"] for r in expected
                                 if r["scheduler"] == "drl"]


def test_e12_rows_equal_reference_loop(monkeypatch):
    results = {}
    real = E.train_scheduler

    def recording(env, algo="ppo", **kwargs):
        result = real(env, algo=algo, **kwargs)
        results[algo] = copy.deepcopy(result)
        return result

    monkeypatch.setattr(E, "train_scheduler", recording)
    out = E.e12_algorithms(iterations=1)
    scenario = E.quick_scenario(load=0.7)
    traces = scenario.traces(3)
    expected = []
    for algo in ("reinforce", "a2c", "ppo"):
        returns = results[algo].returns()
        tail = float(np.mean(returns[-max(len(returns) // 5, 1):]))
        head = float(np.mean(returns[:max(len(returns) // 5, 1)]))
        expected.append({
            "algo": algo, "first_return": head, "final_return": tail,
            "improvement": tail - head,
            "miss_rate": reference(results[algo].scheduler, scenario,
                                   traces)["miss_rate"]})
    assert rows_json(out.rows) == rows_json(expected)


def test_e17_rows_equal_reference_loop(trained):
    out = E.e17_learned_admission(train_iterations=1, n_traces=2)
    plain = E.quick_scenario(load=1.1, reject=False)
    reject = E.quick_scenario(load=1.1, reject=True)
    traces = plain.traces(2)
    variants = [
        ("drl", trained(plain), plain),
        ("drl+reject", trained(reject), reject),
        ("edf", EDFScheduler(), plain),
        ("ac(edf)", AdmissionControlScheduler(EDFScheduler()), plain),
    ]
    expected = [{"variant": name, **reference(sched, scenario, traces,
                                              dropped="num_dropped")}
                for name, sched, scenario in variants]
    assert rows_json(out.rows) == rows_json(expected)
