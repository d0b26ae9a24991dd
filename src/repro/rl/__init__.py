"""Reinforcement-learning substrate.

A Gym-like environment protocol with action masks, return/advantage
estimation, masked categorical policies over the from-scratch NN stack,
and four agents: REINFORCE (with learned baseline, as DeepRM), A2C, PPO
(clipped), and DQN (replay + target network) — the algorithm family the
paper's evaluation compares (experiment E12). It holds what those agents
call, and nothing more: the one schedule is the linear one DQN anneals
epsilon and PER's ``beta`` by, and a new schedule, buffer or estimator
lands together with its first caller.

The three on-policy agents share one skeleton,
:class:`~repro.rl.rollout.OnPolicyAgent`: acting, episode collection
(serial, or batched through a :class:`VecEnv`), the training loop and
GAE. Each keeps only its ``update`` rule. DQN has its own
replay-driven loop.
"""

from repro.rl.env import Env
from repro.rl.returns import (
    discounted_returns,
    gae_advantages,
    normalize_advantages,
)
from repro.rl.policies import CategoricalPolicy, ValueFunction
from repro.rl.rollout import (
    OnPolicyAgent,
    RolloutBuffer,
    Transition,
    collect_vec_episodes,
)
from repro.rl.vec_env import VecEnv
from repro.rl.replay import ReplayBuffer
from repro.rl.prioritized import PrioritizedReplayBuffer
from repro.rl.schedules import LinearSchedule
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.a2c import A2CAgent, A2CConfig
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.dqn import DQNAgent, DQNConfig, DuelingQNet

__all__ = [
    "Env",
    "discounted_returns", "gae_advantages", "normalize_advantages",
    "CategoricalPolicy", "ValueFunction",
    "RolloutBuffer", "Transition", "collect_vec_episodes", "VecEnv",
    "OnPolicyAgent",
    "ReplayBuffer", "PrioritizedReplayBuffer",
    "LinearSchedule",
    "ReinforceAgent", "ReinforceConfig",
    "A2CAgent", "A2CConfig",
    "PPOAgent", "PPOConfig",
    "DQNAgent", "DQNConfig", "DuelingQNet",
]
