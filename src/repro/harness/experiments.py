"""One entry point per reconstructed table/figure (``e01``–``e18``).

Every function is size-parameterized: the defaults here are *bench-sized*
(the whole suite completes offline in minutes); the wrappers under
``benchmarks/`` run them at these sizes. Each returns an
:class:`ExperimentOutput` whose ``text`` field holds the rendered
table/figure.

Every experiment evaluates as the cells of one
:func:`~repro.harness.parallel.run_cells` call, so its rows are the
same at any ``workers``. A cell that must return more than a report
runs on a scenario subclass whose ``evaluate_segment`` hook returns a
small typed result (E7, E13, E14, E15).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    AdmissionControlScheduler,
    BackfillScheduler,
    EDFScheduler,
    GreedyElasticScheduler,
    MigratingElasticScheduler,
    TetrisScheduler,
    baseline_roster,
)
from repro.core import (
    CoreConfig,
    DRLScheduler,
    RewardWeights,
    SchedulerEnv,
    evaluate_scheduler_runs,
    train_scheduler,
)
from repro.harness.parallel import EvalCell, FixedScheduler, evaluate_grid, run_cells
from repro.harness.plots import ascii_line_plot
from repro.harness.results import Row
from repro.harness.scenario import Scenario, standard_scenario
from repro.harness.tables import format_table
from repro.rl import A2CConfig, PPOAgent, PPOConfig, ReinforceConfig
from repro.sim.energy import PowerModel
from repro.sim.faults import FaultModel
from repro.sim.job import Job
from repro.sim.metrics import MetricsReport, SegmentMetrics, merge_segments
from repro.sim.simulation import Simulation, SimulationConfig
from repro.workload.classes import default_job_classes

__all__ = [
    "ExperimentOutput",
    "DEFAULT_REWARD", "quick_core", "quick_scenario", "train_drl",
    "e01_training_curve", "e02_main_table", "e03_load_sweep",
    "e04_tightness_sweep", "e05_elasticity_ablation", "e06_heterogeneity",
    "e07_utilization_timeline", "e08_reward_ablation", "e09_generalization",
    "e11_speedup_sensitivity", "e12_algorithms",
    "e13_fault_robustness", "e14_energy", "e15_dag_workloads",
    "e16_extended_baselines", "e17_learned_admission", "e18_leaderboard",
]

#: Reward weights used throughout the suite: the miss term dominates (the
#: time-critical objective), slowdown/tardiness shape, utilization
#: tie-breaks. Magnitudes are scaled so episode returns stay O(100) —
#: value-function conditioning, not objective choice.
DEFAULT_REWARD = RewardWeights(slowdown=0.05, miss=1.0, tardiness=0.05,
                               utilization=0.005)


@dataclass
class ExperimentOutput:
    """Uniform result bundle for one experiment."""

    name: str
    rows: List[Row] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    text: str = ""
    elapsed_s: float = 0.0

    def metric_by(self, key_col: str, key, metric: str) -> float:
        """Lookup: the ``metric`` of the first row where ``key_col == key``."""
        for row in self.rows:
            if row.get(key_col) == key:
                return float(row[metric])
        raise KeyError(f"no row with {key_col}={key!r}")


def quick_core(reward: Optional[RewardWeights] = None, elastic: bool = True,
               reject: bool = False) -> CoreConfig:
    """Bench-sized MDP config (6 queue/running slots, H=12)."""
    return CoreConfig(
        queue_slots=6,
        running_slots=6 if elastic else 0,
        horizon=12,
        actions_per_tick=6,
        elastic_actions=elastic,
        reject_actions=reject,
        reward=reward if reward is not None else DEFAULT_REWARD,
    )


def quick_scenario(
    load: float = 0.7,
    tightness: float = 1.0,
    reward: Optional[RewardWeights] = None,
    elastic: bool = True,
    reject: bool = False,
) -> Scenario:
    """Bench-sized scenario (16 CPU + 6 GPU units, 40-tick arrival window)."""
    return standard_scenario(
        load=load,
        horizon=40,
        tightness_scale=tightness,
        cpu_capacity=16,
        gpu_capacity=6,
        classes=default_job_classes(),
        core=quick_core(reward, elastic, reject),
        max_ticks=250,
    )


def _ppo_config(warm_start: bool = True) -> PPOConfig:
    """PPO hyperparameters: gentle steps for fine-tuning a cloned policy,
    larger steps when training from scratch."""
    if warm_start:
        return PPOConfig(lr=1e-4, value_lr=1e-3, entropy_coef=0.003,
                         minibatch_size=128, epochs=4, hidden=(128, 128),
                         clip_eps=0.1, target_kl=0.02)
    return PPOConfig(lr=3e-4, value_lr=1e-3, entropy_coef=0.01,
                     minibatch_size=128, epochs=4, hidden=(128, 128))


def train_drl(
    scenario: Scenario,
    iterations: int = 60,
    seed: int = 0,
    algo: str = "ppo",
    n_train_traces: int = 8,
    train_seed_base: int = 500,
    algo_config=None,
    warm_start: bool = True,
    n_val_traces: int = 3,
    val_seed_base: int = 700,
    num_envs: int = 1,
) -> DRLScheduler:
    """Train a policy on fixed traces of ``scenario`` (DeepRM recipe).

    Three disjoint seed ranges: training traces (variance reducer),
    validation traces (best-checkpoint selection), and — supplied by the
    caller — evaluation traces. By default the policy is behavior-cloned
    from the elastic teacher before PPO fine-tuning
    (:mod:`repro.core.imitation`).

    ``num_envs > 1`` collects each iteration's episodes through a
    :class:`~repro.rl.vec_env.VecEnv` (batched lockstep rollouts).
    """
    train_traces = scenario.traces(n_train_traces, base_seed=train_seed_base)
    val_traces = scenario.traces(n_val_traces, base_seed=val_seed_base)
    env = scenario.eval_env(train_traces, seed=seed)
    if algo_config is None and algo == "ppo":
        algo_config = _ppo_config(warm_start)
    result = train_scheduler(
        env, algo=algo, iterations=iterations, episodes_per_iter=4,
        algo_config=algo_config, seed=seed, warm_start=warm_start,
        val_traces=val_traces, eval_every=10, num_envs=num_envs,
    )
    return result.scheduler


def _resolve_scenario_arg(scenario) -> Scenario:
    """A ``scenario`` experiment argument -> a concrete :class:`Scenario`.

    Accepts a ready-made instance or a name/path for the registry of
    :mod:`repro.harness.library` (``swf-fixture``, an imported trace
    container path, …) — the hook that runs the e-series experiments on
    real-trace scenarios.
    """
    if isinstance(scenario, Scenario):
        return scenario
    from repro.harness.library import get_scenario

    return get_scenario(str(scenario))


def _evaluate(scenarios: Dict[str, Scenario], schedulers: Dict[str, object],
              n_traces: int, workers: int, base_seed: int = 1000
              ) -> Dict[Tuple[str, str], List[object]]:
    """Every scheduler instance on every scenario's paired traces (seeds
    ``base_seed`` onward): one :func:`~repro.harness.parallel.evaluate_grid`."""
    return evaluate_grid(
        scenarios, {name: FixedScheduler(s) for name, s in schedulers.items()},
        n_traces=n_traces, base_seed=base_seed, workers=workers)


def _evaluate_pairs(entries: Sequence[Tuple[str, Scenario, str, object]],
                    n_traces: int, workers: int) -> List[List[object]]:
    """Each ``(scenario name, scenario, scheduler name, scheduler)`` entry
    on its own scenario's paired traces (seeds 1000 onward), all as cells
    of one :func:`~repro.harness.parallel.run_cells` call: one result
    list per entry, in entry then seed order."""
    cells = [EvalCell(scen_name, scenario, sched_name, FixedScheduler(sched),
                      i, 1000 + i, scenario.max_ticks)
             for scen_name, scenario, sched_name, sched in entries
             for i in range(n_traces)]
    results = run_cells(cells, workers=workers)
    return [results[k * n_traces:(k + 1) * n_traces]
            for k in range(len(entries))]


def _means(items: Sequence[object], *attrs: str) -> Dict[str, float]:
    """Each attribute of ``items`` averaged, keyed by its name."""
    return {a: float(np.mean([getattr(x, a) for x in items])) for a in attrs}


def _mean_metrics(reports: Sequence[MetricsReport]) -> Dict[str, float]:
    return _means(reports, "miss_rate", "mean_slowdown", "mean_tardiness",
                  "mean_utilization")


def _extend(cls, scenario: Scenario, **extra) -> Scenario:
    """``scenario`` as an instance of its subclass ``cls``."""
    return cls(**{f.name: getattr(scenario, f.name) for f in fields(Scenario)},
               **extra)


def _drive(scenario: Scenario, policy, trace: List[Job], max_ticks: int,
           **options) -> Simulation:
    """A plain cell's simulation, kept for more than its report."""
    return evaluate_scheduler_runs(policy, scenario.platforms, [trace],
                                   max_ticks=max_ticks,
                                   engine=scenario.engine, **options)[0]


# ---------------------------------------------------------------------------
# Cells that return more than a report (the run_cells segment hook)
# ---------------------------------------------------------------------------
@dataclass
class _TimelineScenario(Scenario):
    """E7's cells return their :class:`SegmentMetrics`: the series is its
    ``utilization`` column, ``merge_segments([segment])`` the report."""

    def evaluate_segment(self, policy, trace_seed: int, trace: List[Job],
                         max_ticks: int) -> SegmentMetrics:
        return _drive(self, policy, trace, max_ticks).segment()


class _FaultRun(NamedTuple):
    report: MetricsReport
    preemptions: int


@dataclass
class _FaultScenario(Scenario):
    """E13: units fail with mean time between failures ``mtbf`` (``inf``:
    never) and repair in ``mttr`` ticks. A trace's fault stream is seeded
    ``8000 + trace_seed``, so every scheduler faces the same failures."""

    mtbf: float = math.inf
    mttr: float = 8.0

    def evaluate_segment(self, policy, trace_seed: int, trace: List[Job],
                         max_ticks: int) -> _FaultRun:
        models = None if math.isinf(self.mtbf) else {
            p.name: FaultModel(mtbf=self.mtbf, mttr=self.mttr)
            for p in self.platforms}
        sim = _drive(self, policy, trace, max_ticks, fault_models=models,
                     fault_seed=8000 + trace_seed)
        injector = sim.fault_injector
        return _FaultRun(sim.metrics(),
                         injector.stats.preemptions if injector else 0)


class _EnergyRun(NamedTuple):
    report: MetricsReport
    total_energy: float
    energy_per_job: float
    energy_delay_product: float


@dataclass
class _PowerScenario(Scenario):
    """E14: ``power`` maps each platform to its units' power model."""

    power: Dict[str, PowerModel] = field(default_factory=dict)

    def evaluate_segment(self, policy, trace_seed: int, trace: List[Job],
                         max_ticks: int) -> _EnergyRun:
        sim = _drive(self, policy, trace, max_ticks, power_models=self.power)
        report, meter = sim.metrics(), sim.energy_meter
        return _EnergyRun(report, meter.total_energy,
                          meter.energy_per_job(max(report.num_finished, 1)),
                          meter.energy_delay_product(report.mean_jct))


class _GraphRun(NamedTuple):
    report: MetricsReport
    graph_miss_rate: float


@dataclass
class _DAGScenario(Scenario):
    """E15: a trace is ``n_dags`` task graphs arriving over 40 ticks.
    A simulation numbers its graphs and caches their critical paths, so
    each cell simulates a copy of the batch's shared trace."""

    n_dags: int = 12

    def dag_config(self):
        from repro.dag import DAGWorkloadConfig

        return DAGWorkloadConfig(n_dags=self.n_dags, horizon=40)

    def trace(self, seed: int) -> list:
        from repro.dag import generate_dag_trace

        return generate_dag_trace(self.dag_config(), self.platforms,
                                  np.random.default_rng(seed))

    def evaluate_segment(self, policy, trace_seed: int, trace: list,
                         max_ticks: int) -> _GraphRun:
        from repro.dag import DAGSimulation

        sim = DAGSimulation(self.platforms, copy.deepcopy(trace),
                            SimulationConfig(horizon=max_ticks))
        sim.drive(policy, max_ticks=max_ticks, engine=self.engine)
        return _GraphRun(sim.metrics(), sim.graph_miss_rate())


# ---------------------------------------------------------------------------
# E1 — training curve (figure)
# ---------------------------------------------------------------------------
def e01_training_curve(
    iterations: int = 60,
    eval_every: int = 15,
    seed: int = 0,
    load: float = 0.7,
    n_eval_traces: int = 3,
    workers: int = 1,
) -> ExperimentOutput:
    """Policy return and deadline-miss rate over training iterations."""
    t0 = time.time()
    scenario = quick_scenario(load=load)
    train_traces = scenario.traces(8, base_seed=500)
    env = scenario.eval_env(train_traces, seed=seed)
    agent = PPOAgent(env.encoder.obs_dim, env.actions.n, _ppo_config(),
                     np.random.default_rng(seed))
    returns: List[float] = []
    checkpoints: Dict[str, DRLScheduler] = {}
    done_iters = 0
    while done_iters < iterations:
        chunk = min(eval_every, iterations - done_iters)
        history = agent.train(env, iterations=chunk, episodes_per_iter=4,
                              max_steps=10_000)
        done_iters += chunk
        returns.append(float(np.mean([h["episode_return"] for h in history])))
        # A copy: training goes on updating ``agent.policy`` in place.
        checkpoints[str(done_iters)] = DRLScheduler(
            copy.deepcopy(agent.policy), env.config,
            [p.name for p in scenario.platforms], greedy=True)
    grid = _evaluate({"e01": scenario}, checkpoints, n_eval_traces, workers)
    misses = [_mean_metrics(grid[("e01", it)])["miss_rate"] for it in checkpoints]
    rows: List[Row] = [
        {"iteration": int(it), "episode_return": ret, "miss_rate": miss}
        for it, ret, miss in zip(checkpoints, returns, misses)]
    text = format_table(rows, title="E1: PPO training curve") + "\n\n" + ascii_line_plot(
        {"return": returns}, title="E1: episode return vs training",
        x_label="iteration", y_label="return")
    return ExperimentOutput("e01_training_curve", rows,
                            {"return": returns, "miss_rate": misses},
                            text, time.time() - t0)


# ---------------------------------------------------------------------------
# E2 — main comparison table
# ---------------------------------------------------------------------------
def e02_main_table(
    train_iterations: int = 120,
    n_traces: int = 4,
    load: float = 0.7,
    seed: int = 0,
    include_drl: bool = True,
    workers: int = 1,
    scenario=None,
) -> ExperimentOutput:
    """Deadline miss rate / slowdown: DRL vs the full heuristic roster.

    ``scenario`` (a registry name, trace-container path, or
    :class:`Scenario`) runs the comparison on a real-trace scenario
    instead of the synthetic quick scenario at ``load``.
    """
    t0 = time.time()
    scenario = _resolve_scenario_arg(scenario) if scenario is not None \
        else quick_scenario(load=load)
    schedulers: Dict[str, object] = dict(baseline_roster())
    if include_drl:
        schedulers["drl"] = train_drl(scenario, iterations=train_iterations, seed=seed)
    grid = _evaluate({"e02": scenario}, schedulers, n_traces, workers)
    rows: List[Row] = [{"scheduler": name, **_mean_metrics(grid[("e02", name)])}
                       for name in schedulers]
    rows.sort(key=lambda r: r["miss_rate"])
    what = getattr(scenario, "source", "") or f"load={scenario.load}"
    text = format_table(rows, title=f"E2: main comparison ({what})")
    return ExperimentOutput("e02_main_table", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E3 — miss rate vs offered load (figure)
# ---------------------------------------------------------------------------
def e03_load_sweep(
    loads: Sequence[float] = (0.4, 0.7, 1.0, 1.3),
    n_traces: int = 3,
    schedulers: Optional[Dict[str, object]] = None,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
    scenario=None,
) -> ExperimentOutput:
    """Sweep offered load; every scheduler rises, ranking should persist.

    ``scenario`` selects the scenario to sweep (registry name, path, or
    instance): trace-backed scenarios re-normalize their archive to
    each swept load via ``with_target_load`` — the real-trace version
    of the paper's load axis — and synthetic scenarios re-dial via
    ``with_load``. Pinned-trace scenarios replay the same jobs at every
    seed, so a load sweep would relabel identical runs; they are
    rejected.
    """
    t0 = time.time()
    dial = None
    if scenario is not None:
        base = _resolve_scenario_arg(scenario)
        if hasattr(base, "with_target_load"):
            dial = base.with_target_load
        else:
            from repro.harness.library import FixedTraceScenario

            if isinstance(base, FixedTraceScenario):
                raise ValueError(
                    f"scenario {base.source!r} cannot sweep load: its "
                    "pinned trace replays verbatim at every load (no "
                    "with_target_load); use a trace-backed (archive) or "
                    "synthetic scenario")
            dial = base.with_load
    if schedulers is None:
        schedulers = {
            "edf": EDFScheduler(),
            "tetris": TetrisScheduler(),
            "greedy-elastic": GreedyElasticScheduler(),
            "fifo": baseline_roster()["fifo"],
        }
    if drl is not None:
        schedulers = {**schedulers, "drl": drl}
    scenarios = {str(load): dial(load) if dial is not None
                 else quick_scenario(load=load) for load in loads}
    grid = _evaluate(scenarios, schedulers, n_traces, workers)
    rows: List[Row] = []
    series: Dict[str, List[float]] = {name: [] for name in schedulers}
    for load in loads:
        for name in schedulers:
            metrics = _mean_metrics(grid[(str(load), name)])
            rows.append({"load": load, "scheduler": name, **metrics})
            series[name].append(metrics["miss_rate"])
    text = format_table(rows, title="E3: miss rate vs offered load") + "\n\n" + \
        ascii_line_plot(series, title="E3: miss rate vs load",
                        x_label="load", y_label="miss rate")
    return ExperimentOutput("e03_load_sweep", rows, series, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E4 — miss rate vs deadline tightness (figure)
# ---------------------------------------------------------------------------
def e04_tightness_sweep(
    scales: Sequence[float] = (0.7, 1.0, 1.5, 2.5),
    load: float = 0.8,
    n_traces: int = 3,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Sweep the deadline tightness multiplier (smaller = tighter)."""
    t0 = time.time()
    schedulers: Dict[str, object] = {
        "edf": EDFScheduler(),
        "greedy-elastic": GreedyElasticScheduler(),
        "fifo": baseline_roster()["fifo"],
    }
    if drl is not None:
        schedulers["drl"] = drl
    scenarios = {str(scale): quick_scenario(load=load, tightness=scale)
                 for scale in scales}
    grid = _evaluate(scenarios, schedulers, n_traces, workers)
    rows: List[Row] = []
    series: Dict[str, List[float]] = {name: [] for name in schedulers}
    for scale in scales:
        for name in schedulers:
            metrics = _mean_metrics(grid[(str(scale), name)])
            rows.append({"tightness": scale, "scheduler": name, **metrics})
            series[name].append(metrics["miss_rate"])
    text = format_table(rows, title="E4: miss rate vs deadline tightness") + \
        "\n\n" + ascii_line_plot(series, title="E4: miss vs tightness",
                                 x_label="tightness scale", y_label="miss rate")
    return ExperimentOutput("e04_tightness_sweep", rows, series, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E5 — elasticity ablation (table)
# ---------------------------------------------------------------------------
def e05_elasticity_ablation(
    loads: Sequence[float] = (0.6, 0.9),
    train_iterations: int = 80,
    n_traces: int = 3,
    seed: int = 0,
    include_drl: bool = True,
    workers: int = 1,
) -> ExperimentOutput:
    """Elastic vs rigid resource management of the same malleable workload.

    Rigid variants: DRL without grow/shrink actions, EDF admitting at the
    job *minimum* (never adapting), vs their elastic counterparts. Both
    scenarios of a load draw the same traces.
    """
    t0 = time.time()
    rows: List[Row] = []
    entries = []
    for load in loads:
        elastic = quick_scenario(load=load, elastic=True)
        rigid = quick_scenario(load=load, elastic=False)
        variants: List[Tuple[str, object, Scenario]] = [
            ("edf-rigid(min)", EDFScheduler(parallelism="min"), rigid),
            ("edf-fit", EDFScheduler(parallelism="fit"), elastic),
            ("greedy-elastic", GreedyElasticScheduler(), elastic),
        ]
        if include_drl:
            variants.append(("drl-rigid", train_drl(
                rigid, iterations=train_iterations, seed=seed), rigid))
            variants.append(("drl-elastic", train_drl(
                elastic, iterations=train_iterations, seed=seed), elastic))
        for name, sched, scen in variants:
            rows.append({"load": load, "variant": name})
            entries.append((str(load), scen, name, sched))
    for row, reports in zip(rows, _evaluate_pairs(entries, n_traces, workers)):
        row.update(_mean_metrics(reports))
    text = format_table(rows, title="E5: elasticity ablation")
    return ExperimentOutput("e05_elasticity_ablation", rows, {}, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E6 — heterogeneity awareness (table)
# ---------------------------------------------------------------------------
def e06_heterogeneity(
    load: float = 0.7,
    n_traces: int = 4,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Affinity-aware vs heterogeneity-blind placement."""
    t0 = time.time()
    schedulers: Dict[str, object] = {
        "edf-aware": EDFScheduler(platform_choice="best"),
        "edf-blind": EDFScheduler(platform_choice="blind"),
        "tetris-aware": TetrisScheduler(platform_choice="best"),
        "greedy-elastic-aware": GreedyElasticScheduler(platform_choice="best"),
        "greedy-elastic-blind": GreedyElasticScheduler(platform_choice="blind"),
    }
    if drl is not None:
        schedulers["drl"] = drl
    grid = _evaluate({"e06": quick_scenario(load=load)}, schedulers,
                     n_traces, workers)
    rows: List[Row] = [{"scheduler": name, **_mean_metrics(grid[("e06", name)])}
                       for name in schedulers]
    text = format_table(rows, title="E6: heterogeneity awareness")
    return ExperimentOutput("e06_heterogeneity", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E7 — utilization timeline (figure)
# ---------------------------------------------------------------------------
def e07_utilization_timeline(
    load: float = 0.9,
    trace_seed: int = 1000,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Per-tick cluster utilization under competing schedulers, one trace."""
    t0 = time.time()
    schedulers: Dict[str, object] = {
        "edf": EDFScheduler(),
        "greedy-elastic": GreedyElasticScheduler(),
    }
    if drl is not None:
        schedulers["drl"] = drl
    grid = _evaluate({"e07": _extend(_TimelineScenario, quick_scenario(load=load))},
                     schedulers, 1, workers, base_seed=trace_seed)
    series: Dict[str, List[float]] = {}
    rows: List[Row] = []
    for name in schedulers:
        [segment] = grid[("e07", name)]
        report = merge_segments([segment])
        series[name] = segment.utilization.tolist()
        rows.append({"scheduler": name, "mean_utilization": report.mean_utilization,
                     "miss_rate": report.miss_rate})
    text = format_table(rows, title="E7: utilization summary") + "\n\n" + \
        ascii_line_plot(series, title="E7: utilization timeline",
                        x_label="tick", y_label="utilization")
    return ExperimentOutput("e07_utilization_timeline", rows, series, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E8 — reward ablation (table)
# ---------------------------------------------------------------------------
def e08_reward_ablation(
    train_iterations: int = 60,
    load: float = 0.9,
    n_traces: int = 3,
    seed: int = 0,
    variants: Optional[Dict[str, RewardWeights]] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Train one policy per reward variant; compare deadline outcomes."""
    t0 = time.time()
    if variants is None:
        variants = {
            "slowdown-only": RewardWeights(slowdown=0.05, miss=0.0,
                                           tardiness=0.0, utilization=0.0),
            "+miss": RewardWeights(slowdown=0.05, miss=1.0, tardiness=0.0,
                                   utilization=0.0),
            "+miss+tardy": RewardWeights(slowdown=0.05, miss=1.0,
                                         tardiness=0.05, utilization=0.0),
            "full": DEFAULT_REWARD,
        }
    entries = []
    for name, weights in variants.items():
        scenario = quick_scenario(load=load, reward=weights)
        entries.append((name, scenario, "drl", train_drl(
            scenario, iterations=train_iterations, seed=seed)))
    rows: List[Row] = [
        {"reward": name, **_mean_metrics(reports)}
        for (name, *_), reports in zip(entries, _evaluate_pairs(
            entries, n_traces, workers))]
    text = format_table(rows, title="E8: reward-component ablation")
    return ExperimentOutput("e08_reward_ablation", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E9 — generalization across loads (figure)
# ---------------------------------------------------------------------------
def e09_generalization(
    train_load: float = 0.7,
    eval_loads: Sequence[float] = (0.5, 0.7, 1.0),
    train_iterations: int = 100,
    n_traces: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentOutput:
    """Train at one load; evaluate on unseen loads and trace seeds."""
    t0 = time.time()
    train_scenario = quick_scenario(load=train_load)
    schedulers = {
        "drl": train_drl(train_scenario, iterations=train_iterations, seed=seed),
        "edf": EDFScheduler(),
    }
    grid = _evaluate({str(load): quick_scenario(load=load) for load in eval_loads},
                     schedulers, n_traces, workers, base_seed=3000)  # unseen seeds
    rows: List[Row] = []
    series: Dict[str, List[float]] = {"drl": [], "edf": []}
    for load in eval_loads:
        for name in schedulers:
            metrics = _mean_metrics(grid[(str(load), name)])
            rows.append({"eval_load": load, "scheduler": name, **metrics})
            series[name].append(metrics["miss_rate"])
    text = format_table(rows, title=f"E9: generalization (trained at {train_load})")
    return ExperimentOutput("e09_generalization", rows, series, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E11 — speedup-model sensitivity (figure)
# ---------------------------------------------------------------------------
def e11_speedup_sensitivity(
    sigmas: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    load: float = 0.8,
    n_traces: int = 3,
    workers: int = 1,
) -> ExperimentOutput:
    """Elastic advantage vs Amdahl serial fraction.

    As sigma grows, extra units buy less progress, so the gap between the
    elastic heuristic and rigid-min EDF should shrink.
    """
    t0 = time.time()
    scenarios = {
        str(sigma): standard_scenario(
            load=load, horizon=40, cpu_capacity=16, gpu_capacity=6,
            classes=[replace(c, serial_fraction=sigma)
                     for c in default_job_classes()],
            core=quick_core(), max_ticks=250)
        for sigma in sigmas}
    schedulers = {"edf-rigid(min)": EDFScheduler(parallelism="min"),
                  "greedy-elastic": GreedyElasticScheduler()}
    grid = _evaluate(scenarios, schedulers, n_traces, workers)
    rows: List[Row] = []
    series: Dict[str, List[float]] = {"edf-rigid(min)": [], "greedy-elastic": [],
                                      "advantage": []}
    for sigma in sigmas:
        for name in schedulers:
            metrics = _mean_metrics(grid[(str(sigma), name)])
            rows.append({"sigma": sigma, "scheduler": name, **metrics})
            series[name].append(metrics["miss_rate"])
        series["advantage"].append(series["edf-rigid(min)"][-1]
                                   - series["greedy-elastic"][-1])
    text = format_table(rows, title="E11: Amdahl-sigma sensitivity") + "\n\n" + \
        ascii_line_plot(series, title="E11: elastic advantage vs serial fraction",
                        x_label="sigma", y_label="miss rate / advantage")
    return ExperimentOutput("e11_speedup_sensitivity", rows, series, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E12 — RL algorithm comparison (table)
# ---------------------------------------------------------------------------
def e12_algorithms(
    algos: Sequence[str] = ("reinforce", "a2c", "ppo"),
    iterations: int = 40,
    load: float = 0.7,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentOutput:
    """Final return per algorithm under an equal iteration budget.

    All algorithms are compared on training-environment return (the
    common currency; no warm start, so the comparison is of the RL
    algorithms themselves) and on the greedy-decode miss rate.
    """
    t0 = time.time()
    scenario = quick_scenario(load=load)
    train_traces = scenario.traces(8, base_seed=500)
    algo_configs = {
        "reinforce": ReinforceConfig(hidden=(64, 64)),
        "a2c": A2CConfig(hidden=(64, 64)),
        "ppo": PPOConfig(hidden=(64, 64), minibatch_size=128),
    }
    results = {}
    for algo in algos:
        env = scenario.eval_env(train_traces, seed=seed)
        results[algo] = train_scheduler(env, algo=algo, iterations=iterations,
                                        episodes_per_iter=4, seed=seed,
                                        algo_config=algo_configs.get(algo),
                                        warm_start=False)
    grid = _evaluate({"e12": scenario},
                     {algo: result.scheduler for algo, result in results.items()},
                     3, workers)
    rows: List[Row] = []
    for algo in algos:
        returns = results[algo].returns()
        tail = float(np.mean(returns[-max(len(returns) // 5, 1):]))
        head = float(np.mean(returns[:max(len(returns) // 5, 1)]))
        rows.append({"algo": algo, "first_return": head, "final_return": tail,
                     "improvement": tail - head,
                     "miss_rate": _mean_metrics(grid[("e12", algo)])["miss_rate"]})
    text = format_table(rows, title="E12: RL algorithm comparison", precision=2)
    return ExperimentOutput("e12_algorithms", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E13 — robustness under machine faults (table/figure)
# ---------------------------------------------------------------------------
def e13_fault_robustness(
    mtbfs: Sequence[float] = (float("inf"), 60.0, 25.0, 10.0),
    mttr: float = 8.0,
    load: float = 0.7,
    n_traces: int = 3,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Miss rate vs fault pressure (decreasing unit MTBF).

    Fault traces are paired across schedulers (injector seed
    ``8000 + trace_seed``), so differences come from
    scheduling decisions, not fault luck. Expected shape: all schedulers
    degrade as MTBF drops; elasticity-compatible policies degrade most
    gracefully because they re-pack preempted work into the shrunken
    cluster.
    """
    t0 = time.time()
    base = quick_scenario(load=load)
    schedulers: Dict[str, object] = {
        "edf": EDFScheduler(),
        "greedy-elastic": GreedyElasticScheduler(),
        "fifo": baseline_roster()["fifo"],
    }
    if drl is not None:
        schedulers["drl"] = drl
    grid = _evaluate({str(mtbf): _extend(_FaultScenario, base, mtbf=mtbf, mttr=mttr)
                      for mtbf in mtbfs}, schedulers, n_traces, workers)
    rows: List[Row] = []
    series: Dict[str, List[float]] = {name: [] for name in schedulers}
    for mtbf in mtbfs:
        for name in schedulers:
            runs = grid[(str(mtbf), name)]
            metrics = _mean_metrics([run.report for run in runs])
            label = "inf" if math.isinf(mtbf) else mtbf
            rows.append({"mtbf": label, "scheduler": name,
                         **_means(runs, "preemptions"), **metrics})
            series[name].append(metrics["miss_rate"])
    text = format_table(rows, title=f"E13: robustness vs unit MTBF (mttr={mttr})") \
        + "\n\n" + ascii_line_plot(
            series, title="E13: miss rate vs fault pressure (left=no faults)",
            x_label="fault level", y_label="miss rate")
    return ExperimentOutput("e13_fault_robustness", rows, series, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E14 — energy accounting (table)
# ---------------------------------------------------------------------------
def e14_energy(
    load: float = 0.7,
    n_traces: int = 3,
    drl: Optional[DRLScheduler] = None,
    workers: int = 1,
) -> ExperimentOutput:
    """Energy per completed job and energy-delay product per scheduler.

    The accelerator platform is fast but power-hungry (idle 0.5 / busy
    3.0 per unit vs CPU 0.1 / 1.0), so affinity-blind placement and
    max-parallelism admission both show up as energy regressions even
    when deadline metrics look similar.
    """
    t0 = time.time()
    scenario = _extend(_PowerScenario, quick_scenario(load=load), power={
        "cpu": PowerModel(idle_power=0.1, busy_power=1.0),
        "gpu": PowerModel(idle_power=0.5, busy_power=3.0)})
    schedulers: Dict[str, object] = {
        "edf-fit": EDFScheduler(parallelism="fit"),
        "edf-min": EDFScheduler(parallelism="min"),
        "edf-blind": EDFScheduler(platform_choice="blind"),
        "greedy-elastic": GreedyElasticScheduler(),
    }
    if drl is not None:
        schedulers["drl"] = drl
    grid = _evaluate({"e14": scenario}, schedulers, n_traces, workers)
    rows: List[Row] = []
    for name in schedulers:
        runs = grid[("e14", name)]
        rows.append({"scheduler": name, **_means(
            runs, "total_energy", "energy_per_job", "energy_delay_product"),
            **_means([r.report for r in runs], "miss_rate", "mean_jct")})
    rows.sort(key=lambda r: r["energy_per_job"])
    text = format_table(rows, title=f"E14: energy accounting (load={load})",
                        precision=3)
    return ExperimentOutput("e14_energy", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E15 — DAG workloads (table)
# ---------------------------------------------------------------------------
def e15_dag_workloads(
    load: float = 0.6,
    n_traces: int = 3,
    n_dags: int = 12,
    seed_base: int = 4000,
    include_drl: bool = False,
    train_iterations: int = 40,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentOutput:
    """Deadline outcomes on dependency-structured (DAG) workloads.

    Decima-lineage extension: each submission is a small task graph whose
    stages become schedulable only when their parents finish. Compares
    stage-release scheduling under critical-path-first, EDF, and FIFO
    orderings; with ``include_drl`` a PPO policy trained directly on the
    DAG environment (:class:`repro.dag.DAGEpisodeFactory`) joins the
    table. Expected shape: CP-first beats deadline/arrival orderings on
    graph miss rate, because critical-path pressure — not arrival order —
    bounds the graph's completion.
    """
    from repro.dag import CriticalPathScheduler, DAGEpisodeFactory

    t0 = time.time()
    scenario = _extend(_DAGScenario, quick_scenario(load=load), n_dags=n_dags)
    schedulers: Dict[str, object] = {
        "cp-first": CriticalPathScheduler(),
        "edf": EDFScheduler(),
        "fifo": baseline_roster()["fifo"],
    }
    if include_drl:
        factory = DAGEpisodeFactory(
            scenario.platforms, scenario.dag_config(),
            fixed_seeds=[seed_base + 100 + i for i in range(8)])
        env = SchedulerEnv(factory, config=scenario.core,
                           max_ticks=scenario.max_ticks, seed=seed)
        # Imitation warm start: the teacher works through the shared
        # queue view, which is CP-ordered on DAG simulations, so the
        # cloned policy starts near CP-first behaviour.
        result = train_scheduler(env, algo="ppo", iterations=train_iterations,
                                 episodes_per_iter=4, seed=seed,
                                 algo_config=_ppo_config(warm_start=True),
                                 warm_start=True)
        schedulers["drl-dag"] = result.scheduler
    grid = _evaluate({"e15": scenario}, schedulers, n_traces, workers,
                     base_seed=seed_base)
    rows: List[Row] = []
    for name in schedulers:
        runs = grid[("e15", name)]
        rows.append({"scheduler": name, **_means(runs, "graph_miss_rate"),
                     **_mean_metrics([r.report for r in runs])})
    rows.sort(key=lambda r: r["graph_miss_rate"])
    text = format_table(rows, title=f"E15: DAG workloads ({n_dags} graphs/trace)")
    return ExperimentOutput("e15_dag_workloads", rows, {}, text, time.time() - t0)


# ---------------------------------------------------------------------------
# E16 — extended operational baselines (table)
# ---------------------------------------------------------------------------
def e16_extended_baselines(
    loads: Sequence[float] = (0.7, 1.1),
    n_traces: int = 3,
    workers: int = 1,
) -> ExperimentOutput:
    """Backfilling, admission control, and migration vs the core roster.

    The operational techniques a production deployment layers onto the
    base policy. Expected shape: at overload, admission control trades
    drops for on-time completions of the remaining jobs (lower tardiness);
    EASY backfilling fixes FIFO's convoy effect; migration helps when
    affinity-mismatched placements happen under pressure. The fairness
    column (Jain index over per-class slowdowns) exposes policies that
    buy their miss rate by starving one class.
    """
    t0 = time.time()
    schedulers: Dict[str, object] = {
        "fifo": baseline_roster()["fifo"],
        "easy-backfill": BackfillScheduler(),
        "edf": EDFScheduler(),
        "ac(edf)": AdmissionControlScheduler(EDFScheduler()),
        "greedy-elastic": GreedyElasticScheduler(),
        "ac(greedy-elastic)": AdmissionControlScheduler(GreedyElasticScheduler()),
        "migrating-elastic": MigratingElasticScheduler(),
    }
    grid = _evaluate({str(load): quick_scenario(load=load) for load in loads},
                     schedulers, n_traces, workers)
    rows: List[Row] = []
    for load in loads:
        for name in schedulers:
            reports = grid[(str(load), name)]
            rows.append({"load": load, "scheduler": name,
                         **_mean_metrics(reports),
                         **_means(reports, "class_fairness"),
                         "dropped": float(np.mean([r.num_dropped
                                                   for r in reports]))})
    text = format_table(rows, title="E16: extended operational baselines")
    return ExperimentOutput("e16_extended_baselines", rows, {}, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E17 — learned admission control (table)
# ---------------------------------------------------------------------------
def e17_learned_admission(
    load: float = 1.1,
    train_iterations: int = 60,
    n_traces: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> ExperimentOutput:
    """DRL with vs without the reject action at overload.

    With ``reject_actions=True`` the policy may shed provably hopeless
    jobs (negative best-case slack). The shed jobs were misses either
    way; what changes is queue hygiene — the reject-capable policy
    should match the rigid one on miss rate while cutting tardiness
    (late work no longer lingers), mirroring the heuristic
    admission-control result of E16. Heuristic anchors run on the
    scenario without the reject action; both scenarios draw the same
    traces.
    """
    t0 = time.time()
    plain = quick_scenario(load=load, reject=False)
    variants = {"drl": plain,
                "drl+reject": quick_scenario(load=load, reject=True)}
    entries = [(name, scenario, name,
                train_drl(scenario, iterations=train_iterations, seed=seed))
               for name, scenario in variants.items()]
    # Heuristic anchors for context.
    entries += [("edf", plain, "edf", EDFScheduler()),
                ("ac(edf)", plain, "ac(edf)",
                 AdmissionControlScheduler(EDFScheduler()))]
    rows: List[Row] = [
        {"variant": name, **_mean_metrics(reports),
         "dropped": float(np.mean([r.num_dropped for r in reports]))}
        for (name, *_), reports in zip(entries, _evaluate_pairs(
            entries, n_traces, workers))]
    text = format_table(rows, title=f"E17: learned admission control (load={load})")
    return ExperimentOutput("e17_learned_admission", rows, {}, text,
                            time.time() - t0)


# ---------------------------------------------------------------------------
# E18 — trained-policy leaderboard over the scenario registry (table)
# ---------------------------------------------------------------------------
def e18_leaderboard(
    scenarios: Sequence[str] = ("quick", "swf-fixture", "columnar-fixture"),
    agents: Sequence[str] = ("ppo",),
    baselines: Sequence[str] = ("edf", "tetris", "greedy-elastic", "fifo"),
    train_iterations: int = 40,
    n_traces: int = 3,
    seed: int = 0,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    policy_dir: Optional[str] = None,
) -> ExperimentOutput:
    """Train each agent once per scenario; rank everything everywhere.

    The cross-scenario generalization leaderboard
    (:mod:`repro.harness.leaderboard`): trained policies are persisted
    to the content-addressed policy store, evaluation cells are sharded
    over ``workers`` and memoized in the result cache, and the rows are
    byte-identical for any worker count or cache state. This is the
    entry point the nightly CI job and ``examples/leaderboard_study.py``
    drive; the CLI's ``leaderboard`` subcommand adds artifact output.
    """
    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.leaderboard import (
        DEFAULT_POLICY_DIR,
        PolicyStore,
        build_leaderboard,
    )

    t0 = time.time()
    result = build_leaderboard(
        {name: _resolve_scenario_arg(name) for name in scenarios},
        agents=agents,
        baselines=baselines,
        n_traces=n_traces,
        workers=workers,
        cache=ResultCache(cache_dir if cache_dir else DEFAULT_CACHE_DIR),
        store=PolicyStore(policy_dir if policy_dir else DEFAULT_POLICY_DIR),
        train_iterations=train_iterations,
        seed=seed,
    )
    return ExperimentOutput("e18_leaderboard", result.rows,
                            {}, result.to_text(), time.time() - t0)
