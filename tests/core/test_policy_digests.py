"""Frozen digests of the policy layer: observations, masks, training, DRL.

The behavioural oracle for everything that turns a simulation state into
policy inputs and for what is learned from them. Three kinds of group:

* **rollouts** -- one SHA-256 per environment over every decision state
  of a recorded rollout: the observation's float64 bytes, the action
  mask, the teacher's action (:func:`teacher_action`) and then the
  reward and done flag of the step taken. The step's action is the
  teacher's or a uniformly drawn valid one, by a seeded coin, so admits,
  grows, shrinks, rejects and no-ops all occur. Environments:
  ``VecEnv(4)`` on ``quick``; the serial ``SchedulerEnv`` on ``quick``
  with the tick engine, and at load 0.3 (idle stretches) with the event
  engine; ``quick`` at load 1.5 with
  ``reject_actions=True``; ``quick`` with ``elastic_actions=False``
  (running rows shown, no grow/shrink actions); the DAG environment;
* **training** -- the flat policy weights of ``train_drl`` on ``quick``
  at 2 iterations, warm start and validation included, at ``num_envs``
  1 and 4. At seed 11 validation keeps the PPO iterate at both, so the
  digests cover the collectors and the update, not only the clone;
* **evaluation** -- the event log and ``dataclasses.astuple`` of the
  metrics of the ``num_envs=1`` policy, greedy, on three ``quick``
  traces.

The digests were frozen under the numpy version pinned in
``requirements-ci.txt``: a mismatch is a behaviour change, never a
digest to regenerate.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import CoreConfig, SchedulerEnv
from repro.core.imitation import teacher_action
from repro.core.training import evaluate_scheduler_runs
from repro.dag import DAGEpisodeFactory, DAGWorkloadConfig
from repro.harness.experiments import train_drl
from repro.harness.library import get_scenario
from repro.nn.serialize import get_flat_params
from repro.rl.vec_env import VecEnv
from repro.sim import Platform

STEPS = 1500


def quick(**core_changes):
    scenario = get_scenario("quick")
    if core_changes:
        scenario = scenario.with_core(
            dataclasses.replace(scenario.core, **core_changes))
    return scenario


def scenario_env(scenario, engine="tick"):
    return scenario.with_engine(engine).eval_env(
        scenario.traces(4, base_seed=500), seed=0)


def dag_env():
    factory = DAGEpisodeFactory(
        [Platform("cpu", 12, 1.0), Platform("gpu", 4, 1.0)],
        DAGWorkloadConfig(n_dags=6, horizon=20), fixed_seeds=[11, 22])
    core = CoreConfig(queue_slots=4, running_slots=4, horizon=8,
                      actions_per_tick=4)
    return SchedulerEnv(factory, config=core, max_ticks=200, seed=0)


def choose(rng, mask, teacher):
    """The teacher's action or a uniformly drawn valid one."""
    if rng.random() < 0.5:
        return teacher
    return int(rng.choice(np.flatnonzero(mask)))


def record(h, obs, mask, teacher):
    h.update(np.ascontiguousarray(obs, dtype=np.float64).tobytes())
    h.update(np.asarray(mask, dtype=bool).tobytes())
    h.update(b"%d;" % teacher)


def serial_digest(env):
    h = hashlib.sha256()
    rng = np.random.default_rng(5)
    obs = env.reset()
    for _ in range(STEPS):
        mask = env.action_mask()
        teacher = teacher_action(env.sim, env.actions)
        record(h, obs, mask, teacher)
        obs, reward, done, _ = env.step(choose(rng, mask, teacher))
        h.update(repr((reward, done)).encode())
        if done:
            obs = env.reset()
    return h.hexdigest()


def vec_digest(env, num_envs=4):
    h = hashlib.sha256()
    rng = np.random.default_rng(5)
    vec = VecEnv.from_env(env, num_envs)
    obs = vec.reset()
    for _ in range(STEPS // num_envs):
        masks = vec.action_masks()
        actions = []
        for i, e in enumerate(vec.envs):
            teacher = teacher_action(e.sim, vec.actions)
            record(h, obs[i], masks[i], teacher)
            actions.append(choose(rng, masks[i], teacher))
        obs, rewards, dones, _ = vec.step(np.array(actions))
        h.update(rewards.tobytes() + dones.tobytes())
    return h.hexdigest()


ROLLOUTS = {
    "quick-vec4": lambda: vec_digest(scenario_env(quick())),
    "quick-serial-tick": lambda: serial_digest(scenario_env(quick())),
    "quick-serial-event-load0.3": lambda: serial_digest(
        scenario_env(quick().with_load(0.3), engine="event")),
    "quick-reject-load1.5": lambda: serial_digest(
        scenario_env(quick(reject_actions=True).with_load(1.5))),
    "quick-rigid-actions": lambda: serial_digest(
        scenario_env(quick(elastic_actions=False))),
    "dag": lambda: serial_digest(dag_env()),
}

#: Rollout name -> digest, frozen before the encoder read the columns.
ROLLOUT_DIGESTS = {
    "quick-vec4":
        "080703c060cf7b2f5b97cc93f07fdd1c43005473e234e9e51232d8920dc35dd5",
    "quick-serial-tick":
        "2a5aa0ac7cc4598dab542a776938f63f837b5d8edb55ff0755af8c41b0893d0e",
    "quick-serial-event-load0.3":
        "2ee8e527ad67cc2e51f1c562cd180a0959ad4008ded9fb5025f3b64e7a4d829a",
    "quick-reject-load1.5":
        "f2fa9240012c88c5b83776b0465a4196049c54b918816d157108bdf67824a0c7",
    "quick-rigid-actions":
        "ffbe2f74055a0b6682e333264b0124663fb832daeb927e39717b6b61d1ac237c",
    "dag":
        "ce91ab78b83532e4cd77f0b30e3f92df4f0ce3f0589c2b35313d9e91dda45a67",
}


@pytest.mark.parametrize("name", list(ROLLOUT_DIGESTS))
def test_rollout_digest(name):
    got = ROLLOUTS[name]()
    assert got == ROLLOUT_DIGESTS[name], (
        f"rollout digest mismatch for {name!r} under numpy {np.__version__}: "
        "an observation, mask, teacher action or reward changed")


def trained(num_envs):
    return train_drl(get_scenario("quick"), iterations=2, seed=11,
                     n_train_traces=4, n_val_traces=2, num_envs=num_envs)


#: num_envs -> digest of the trained flat weights.
WEIGHT_DIGESTS = {
    1: "b429e4177c87db1f5663d94ce8e0e1633d278939aa6aa58c90a17ddc7eeb4ae0",
    4: "eb274d1d48370d4906a68cc3a9ce02513a46749d3fc1b40db24625f1fe9a6199",
}

#: Digest of the num_envs=1 policy's evaluation (log + metrics).
EVAL_DIGEST = (
    "5d2a6fcf8eac35ea36ff12b37352cc585b9d4e0ea0ce4333c89fa46f0442b884")


@pytest.fixture(scope="module")
def schedulers():
    return {n: trained(n) for n in WEIGHT_DIGESTS}


@pytest.mark.parametrize("num_envs", list(WEIGHT_DIGESTS))
def test_trained_weight_digest(schedulers, num_envs):
    weights = get_flat_params(schedulers[num_envs].policy.net)
    got = hashlib.sha256(weights.tobytes()).hexdigest()
    assert got == WEIGHT_DIGESTS[num_envs], (
        f"weight digest mismatch at num_envs={num_envs} under numpy "
        f"{np.__version__}: training changed")


def test_drl_evaluation_digest(schedulers):
    scenario = get_scenario("quick")
    h = hashlib.sha256()
    for sim in evaluate_scheduler_runs(
            schedulers[1], scenario.platforms, scenario.traces(3),
            max_ticks=scenario.max_ticks, engine=scenario.engine):
        log = [(e.time, e.kind.value, e.job_id, e.platform, e.parallelism,
                e.detail) for e in sim.log]
        h.update(repr(log).encode())
        h.update(repr(dataclasses.astuple(sim.metrics())).encode())
    assert h.hexdigest() == EVAL_DIGEST, (
        f"DRL evaluation digest mismatch under numpy {np.__version__}: a "
        "decision of the trained policy changed")
