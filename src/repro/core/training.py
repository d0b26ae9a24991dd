"""End-to-end training and evaluation of the DRL resource manager."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.agent import DRLScheduler
from repro.core.config import CoreConfig
from repro.core.scheduler_env import SchedulerEnv
from repro.rl.a2c import A2CAgent, A2CConfig
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.rollout import OnPolicyAgent
from repro.sim.job import Job
from repro.sim.metrics import MetricsReport
from repro.sim.platform import Platform
from repro.sim.simulation import Simulation, SimulationConfig

__all__ = ["ALGOS", "TrainResult", "train_scheduler", "evaluate_scheduler",
           "evaluate_scheduler_runs"]

#: The algorithms :func:`train_scheduler` trains: name -> (agent class,
#: config class).
ALGOS = {
    "reinforce": (ReinforceAgent, ReinforceConfig),
    "a2c": (A2CAgent, A2CConfig),
    "ppo": (PPOAgent, PPOConfig),
}


@dataclass
class TrainResult:
    """Outcome of :func:`train_scheduler`."""

    algo: str
    agent: OnPolicyAgent
    scheduler: DRLScheduler
    history: List[Dict[str, float]] = field(default_factory=list)
    best_val_miss: Optional[float] = None

    def returns(self) -> List[float]:
        """Episode-return curve over training iterations (E1's figure)."""
        return [h["episode_return"] for h in self.history]


def train_scheduler(
    env: SchedulerEnv,
    algo: str = "ppo",
    iterations: int = 30,
    episodes_per_iter: int = 3,
    max_steps: int = 5000,
    algo_config=None,
    seed: int = 0,
    warm_start: bool = False,
    warm_start_episodes: int = 8,
    val_traces: Optional[Sequence[List[Job]]] = None,
    eval_every: int = 10,
    num_envs: int = 1,
) -> TrainResult:
    """Train a scheduling policy on ``env`` with the chosen algorithm.

    With ``warm_start=True``, the policy is first behavior-cloned from
    the elastic-heuristic teacher (:mod:`repro.core.imitation`) so RL
    fine-tuning starts at heuristic parity instead of from random
    decisions.

    With ``val_traces`` given, the greedy-decoded policy is evaluated on
    those held-out traces every ``eval_every`` iterations and the best
    checkpoint (lowest validation miss rate) is restored at the end —
    fine-tuned policies drift if trained past their optimum, and
    best-checkpoint selection is the standard guard.

    Returns the trained agent plus a :class:`DRLScheduler` adapter ready
    for head-to-head evaluation against the heuristic baselines.

    With ``num_envs > 1``, each iteration's episodes are collected through
    a :class:`~repro.rl.vec_env.VecEnv` of that many sibling environments
    stepped in lockstep with batched action selection — the same number
    of episodes per update at a fraction of the wall-clock cost.
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algo {algo!r}; choose from {sorted(ALGOS)}")
    if num_envs < 1:
        raise ValueError("num_envs must be >= 1")
    agent_cls, config_cls = ALGOS[algo]
    if algo_config is None:
        algo_config = config_cls()
    rng = np.random.default_rng(seed)
    agent = agent_cls(env.encoder.obs_dim, env.actions.n, algo_config, rng)
    if warm_start:
        from repro.core.imitation import warm_start as _warm_start

        _warm_start(agent, env, rng, episodes=warm_start_episodes)

    train_target = env
    if num_envs > 1:
        from repro.rl.vec_env import VecEnv

        # More environments than episodes per iteration is pure discarded
        # work: the collector stops at the episode quota and drops the
        # other environments' in-flight partials.
        train_target = VecEnv.from_env(env, min(num_envs, episodes_per_iter),
                                       base_seed=seed)

    platform_names = [p.name for p in env.factory.platforms]
    use_selection = val_traces is not None
    best_params: Optional[np.ndarray] = None
    best_miss = float("inf")

    def _validate() -> float:
        sched = DRLScheduler(agent.policy, env.config, platform_names,
                             greedy=True, work_scale=env.encoder.work_scale)
        reports = evaluate_scheduler(sched, env.factory.platforms, val_traces,
                                     max_ticks=env.max_ticks)
        return float(np.mean([r.miss_rate for r in reports]))

    history: List[Dict[str, float]] = []
    if use_selection:
        from repro.nn.serialize import get_flat_params, set_flat_params

        best_miss = _validate()
        best_params = get_flat_params(agent.policy.net)
        done = 0
        while done < iterations:
            chunk = min(eval_every, iterations - done)
            history.extend(agent.train(train_target, iterations=chunk,
                                       episodes_per_iter=episodes_per_iter,
                                       max_steps=max_steps))
            done += chunk
            miss = _validate()
            if miss < best_miss:
                best_miss = miss
                best_params = get_flat_params(agent.policy.net)
        set_flat_params(agent.policy.net, best_params)
    else:
        history = agent.train(train_target, iterations=iterations,
                              episodes_per_iter=episodes_per_iter,
                              max_steps=max_steps)

    scheduler = DRLScheduler(agent.policy, env.config, platform_names,
                             greedy=True, work_scale=env.encoder.work_scale)
    return TrainResult(algo=algo, agent=agent, scheduler=scheduler, history=history,
                       best_val_miss=best_miss if use_selection else None)


def evaluate_scheduler_runs(
    policy,
    platforms: Sequence[Platform],
    traces: Sequence[List[Job]],
    drop_on_miss: bool = False,
    max_ticks: int = 2000,
    fault_models=None,
    power_models=None,
    fault_seed: int = 9000,
    engine: str = "tick",
) -> List[Simulation]:
    """Like :func:`evaluate_scheduler` but returns the finished simulations.

    Needed when the caller wants more than the metrics report — the fault
    statistics, energy meters, event logs, or utilization timelines. The
    simulations are driven, not reduced: call ``metrics()`` or
    ``records()`` once per simulation for what is needed.

    ``fault_models`` (platform -> :class:`~repro.sim.FaultModel`) attaches
    a fault injector per trace, seeded ``fault_seed + trace_index`` so the
    fault process is *paired across schedulers* evaluated on the same
    traces. ``power_models`` (platform -> :class:`~repro.sim.PowerModel`)
    attaches an energy meter.

    ``engine`` picks the simulation driver (``"tick"`` or ``"event"``);
    both produce identical results, the event kernel fast-forwards idle
    stretches (see :mod:`repro.sim.kernel`).
    """
    sims: List[Simulation] = []
    for i, trace in enumerate(traces):
        injector = None
        if fault_models is not None:
            from repro.sim.faults import FaultInjector

            injector = FaultInjector(fault_models,
                                     rng=np.random.default_rng(fault_seed + i))
        meter = None
        if power_models is not None:
            from repro.sim.energy import EnergyMeter

            meter = EnergyMeter(power_models)
        sim = Simulation(
            platforms, [j.clone_pending() for j in trace],
            SimulationConfig(drop_on_miss=drop_on_miss, horizon=max_ticks),
            fault_injector=injector, energy_meter=meter,
        )
        sim.drive(policy, max_ticks=max_ticks, engine=engine)
        sims.append(sim)
    return sims


def evaluate_scheduler(
    policy,
    platforms: Sequence[Platform],
    traces: Sequence[List[Job]],
    max_ticks: int = 2000,
    engine: str = "tick",
) -> List[MetricsReport]:
    """Run ``policy`` (baseline or :class:`DRLScheduler`) over fixed traces.

    Each trace gets a fresh :class:`~repro.sim.Simulation` with cloned
    jobs, so the same traces can be replayed under many schedulers. See
    :func:`evaluate_scheduler_runs` for dropping missed jobs, faults,
    energy meters and access to the underlying simulations. Parallel
    evaluation goes through :func:`repro.harness.parallel.evaluate_grid`.
    """
    sims = evaluate_scheduler_runs(policy, platforms, traces,
                                   max_ticks=max_ticks, engine=engine)
    return [sim.metrics() for sim in sims]
