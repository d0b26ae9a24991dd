"""The paper's primary contribution: an elasticity-compatible DRL resource
manager for time-critical computing on heterogeneous clusters.

Pipeline:

* :class:`~repro.core.config.CoreConfig` — sizes of the visible queue /
  running-set windows, lookahead horizon, parallelism levels, reward
  weights;
* :class:`~repro.core.state.StateEncoder` — DeepRM-style fixed-size
  observation (cluster occupancy image × platform + job-slot features);
* :class:`~repro.core.actions.SchedulingActionSpace` — composite masked
  discrete actions: admit(queue-slot, platform, level), grow/shrink
  (running-slot), no-op;
* :class:`~repro.core.reward.RewardWeights` / tick reward — slowdown
  shaping + deadline-miss and tardiness penalties + utilization bonus;
* :class:`~repro.core.scheduler_env.SchedulerEnv` — the MDP
  (multi-action-per-tick convention);
* :class:`~repro.core.agent.DRLScheduler` — a trained policy packaged as
  a drop-in scheduling policy comparable with the heuristic baselines;
* :func:`~repro.core.training.train_scheduler` — end-to-end training.
"""

from repro.core.config import CoreConfig
from repro.core.state import StateEncoder
from repro.core.actions import Action, ActionKind, SchedulingActionSpace
from repro.core.reward import RewardWeights, tick_reward
from repro.core.scheduler_env import EpisodeFactory, SchedulerEnv
from repro.core.agent import DRLScheduler
from repro.core.training import (
    TrainResult,
    evaluate_scheduler,
    evaluate_scheduler_runs,
    train_scheduler,
)

__all__ = [
    "CoreConfig", "StateEncoder",
    "Action", "ActionKind", "SchedulingActionSpace",
    "RewardWeights", "tick_reward",
    "SchedulerEnv", "EpisodeFactory",
    "DRLScheduler",
    "train_scheduler", "evaluate_scheduler", "evaluate_scheduler_runs",
    "TrainResult",
]
