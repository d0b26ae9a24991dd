"""Reinforcement-learning substrate.

A Gym-like environment protocol with action masks, return/advantage
estimation, masked categorical policies over the from-scratch NN stack,
and three policy-gradient agents: REINFORCE (with learned baseline, as
DeepRM), A2C and PPO (clipped) — the algorithm family the paper's
evaluation compares (experiment E12). It holds what those agents call,
and nothing more: a new buffer or estimator lands together with its
first caller.

The three agents share one skeleton,
:class:`~repro.rl.rollout.OnPolicyAgent`: acting, episode collection
(serial, or batched through a :class:`VecEnv`), the training loop and
GAE. Each keeps only its ``update`` rule.
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
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.a2c import A2CAgent, A2CConfig
from repro.rl.ppo import PPOAgent, PPOConfig

__all__ = [
    "Env",
    "discounted_returns", "gae_advantages", "normalize_advantages",
    "CategoricalPolicy", "ValueFunction",
    "RolloutBuffer", "Transition", "collect_vec_episodes", "VecEnv",
    "OnPolicyAgent",
    "ReinforceAgent", "ReinforceConfig",
    "A2CAgent", "A2CConfig",
    "PPOAgent", "PPOConfig",
]
