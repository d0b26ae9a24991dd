"""Vectorized environment layer: batched shapes, consistency, training."""

import numpy as np
import pytest

from repro.core.training import train_scheduler
from repro.harness import standard_scenario
from repro.rl import VecEnv, collect_vec_episodes
from repro.rl.a2c import A2CAgent, A2CConfig
from repro.rl.ppo import PPOAgent, PPOConfig
from repro.rl.reinforce import ReinforceAgent, ReinforceConfig
from repro.rl.rollout import RolloutBuffer


@pytest.fixture(scope="module")
def scenario():
    return standard_scenario(load=0.7)


@pytest.fixture()
def env(scenario):
    return scenario.train_env(seed=0)


class TestVecEnvBasics:
    def test_shapes(self, env):
        vec = VecEnv.from_env(env, 4, base_seed=10)
        obs = vec.reset()
        assert obs.shape == (4, env.encoder.obs_dim)
        masks = vec.action_masks()
        assert masks.shape == (4, env.actions.n)
        assert masks.dtype == bool
        assert masks[:, env.actions.noop_index].all()
        noop = np.full(4, env.actions.noop_index)
        obs2, rewards, dones, infos = vec.step(noop)
        assert obs2.shape == obs.shape
        assert rewards.shape == (4,)
        assert dones.shape == (4,)
        assert len(infos) == 4

    def test_requires_envs(self):
        with pytest.raises(ValueError, match="at least one"):
            VecEnv([])

    def test_from_env_validates(self, env):
        with pytest.raises(ValueError, match="num_envs"):
            VecEnv.from_env(env, 0)

    def test_clone_carries_full_config(self, scenario):
        """Siblings must match the prototype on *every* constructor
        option — a clone that drops one silently corrupts vectorized
        training (the VecEnv.from_env hazard)."""
        from repro.core.scheduler_env import EpisodeFactory, SchedulerEnv

        factory = EpisodeFactory(scenario.platforms,
                                 fixed_traces=scenario.traces(2))
        env = SchedulerEnv(factory, config=scenario.core, max_ticks=77,
                           drop_on_miss=True, seed=3, work_scale=13.0,
                           engine="event")
        clone = env.clone(seed=9)
        assert clone is not env
        assert clone.factory is env.factory
        assert clone.config is env.config
        assert clone.max_ticks == 77
        assert clone.drop_on_miss is True
        assert clone.encoder.work_scale == 13.0
        assert clone.engine == "event"
        # The ctor-kwargs capture covers the *whole* signature, so a new
        # env option cannot be silently dropped by clones.
        import inspect

        params = set(inspect.signature(type(env).__init__).parameters)
        params.discard("self")
        assert set(env._ctor_kwargs) == params

    def test_from_env_siblings_match_prototype(self, scenario):
        from repro.core.scheduler_env import SchedulerEnv

        proto = scenario.train_env(seed=0)
        env = SchedulerEnv(proto.factory, config=proto.config,
                           max_ticks=proto.max_ticks, drop_on_miss=True,
                           seed=0, work_scale=30.0, engine="event")
        vec = VecEnv.from_env(env, 3, base_seed=100)
        for sibling in vec.envs:
            assert sibling.drop_on_miss is True
            assert sibling.engine == "event"
            assert sibling.encoder.work_scale == 30.0
            assert sibling.max_ticks == env.max_ticks

    def test_batched_obs_match_serial_encode(self, env):
        """Every row of the batched encode equals the env's own encode."""
        vec = VecEnv.from_env(env, 3, base_seed=7)
        obs = vec.reset()
        for i, e in enumerate(vec.envs):
            assert np.array_equal(obs[i], e.encoder.encode(e.sim))
        rng = np.random.default_rng(0)
        for _ in range(50):
            masks = vec.action_masks()
            for i, e in enumerate(vec.envs):
                assert np.array_equal(masks[i], e.actions.mask(e.sim))
            actions = np.array([
                rng.choice(np.flatnonzero(masks[i])) for i in range(3)
            ])
            obs, _, _, _ = vec.step(actions)
            for i, e in enumerate(vec.envs):
                assert np.array_equal(obs[i], e.encoder.encode(e.sim))

    def test_repeated_reset_is_consistent(self, env):
        # Regression: cached slot views must be invalidated on reset.
        vec = VecEnv.from_env(env, 2, base_seed=3)
        vec.reset()
        vec.action_masks()
        obs = vec.reset()
        for i, e in enumerate(vec.envs):
            assert np.array_equal(obs[i], e.encoder.encode(e.sim))
            assert np.array_equal(vec.action_masks()[i], e.actions.mask(e.sim))

    def test_autoreset_on_done(self, env):
        vec = VecEnv.from_env(env, 2, base_seed=1)
        vec.reset()
        noop = np.full(2, env.actions.noop_index)
        for _ in range(env.max_ticks + 5):
            obs, _, dones, infos = vec.step(noop)
            if dones.any():
                i = int(np.flatnonzero(dones)[0])
                assert "metrics" in infos[i]
                # the returned obs row belongs to the freshly reset episode
                assert vec.envs[i].sim.now == 0
                assert np.array_equal(obs[i], env.encoder.encode(vec.envs[i].sim))
                return
        pytest.fail("no episode terminated within max_ticks")


class TestBatchedCollection:
    def test_collects_requested_episodes(self, env):
        agent = A2CAgent(env.encoder.obs_dim, env.actions.n, A2CConfig(),
                         np.random.default_rng(0))
        vec = VecEnv.from_env(env, 4, base_seed=20)
        buffer = RolloutBuffer()
        returns = collect_vec_episodes(agent, vec, buffer, episodes=5,
                                       max_steps=5000)
        assert len(returns) == 5
        assert buffer.num_episodes == 5
        episodes = buffer.episodes()
        # every stored episode terminates (partials are discarded)
        for ep in episodes:
            assert ep[-1].done
        # per-episode returns match the stored rewards
        for ep, ret in zip(episodes, returns):
            assert sum(t.reward for t in ep) == pytest.approx(ret)

    @pytest.mark.parametrize("collector", ["serial", "vec"])
    @pytest.mark.parametrize("agent_cls, config", [
        (ReinforceAgent, ReinforceConfig(baseline="value")),
        (A2CAgent, A2CConfig()),
        (PPOAgent, PPOConfig()),
    ], ids=["reinforce", "a2c", "ppo"])
    def test_deferred_values_match_value_fn(self, env, agent_cls, config,
                                            collector):
        """``records_values`` through ``train``'s own collection: every
        stored value is ``V(s)`` when the agent records values and 0.0
        when it does not (REINFORCE, even with a value baseline)."""
        agent = agent_cls(env.encoder.obs_dim, env.actions.n, config,
                          np.random.default_rng(0))
        assert agent.value_fn is not None
        buffers = []
        agent.update = lambda buffer: buffers.append(buffer) or {}
        target = VecEnv.from_env(env, 2, base_seed=21) if collector == "vec" else env
        agent.train(target, iterations=1, episodes_per_iter=2, max_steps=300)
        (buffer,) = buffers
        assert len(buffer) > 0
        assert agent.records_values == (agent_cls is not ReinforceAgent)
        for ep in buffer.episodes():
            for t in ep:
                if agent.records_values:
                    expected = float(agent.value_fn.predict(t.obs)[0])
                    assert t.value == pytest.approx(expected)
                else:
                    assert t.value == 0.0

    def test_masks_are_respected(self, env):
        agent = PPOAgent(env.encoder.obs_dim, env.actions.n, PPOConfig(),
                         np.random.default_rng(0))
        vec = VecEnv.from_env(env, 3, base_seed=22)
        buffer = RolloutBuffer()
        collect_vec_episodes(agent, vec, buffer, episodes=3, max_steps=5000)
        for ep in buffer.episodes():
            for t in ep:
                assert t.mask[t.action]

    def test_max_steps_truncation(self, env):
        agent = A2CAgent(env.encoder.obs_dim, env.actions.n, A2CConfig(),
                         np.random.default_rng(0))
        vec = VecEnv.from_env(env, 2, base_seed=23)
        buffer = RolloutBuffer()
        returns = collect_vec_episodes(agent, vec, buffer, episodes=2,
                                       max_steps=10)
        assert len(returns) == 2
        for ep in buffer.episodes():
            assert len(ep) <= 10


class TestVecTraining:
    @pytest.mark.parametrize("algo", ["a2c", "ppo", "reinforce"])
    def test_train_scheduler_num_envs(self, env, algo):
        result = train_scheduler(env, algo=algo, iterations=1,
                                 episodes_per_iter=2, max_steps=400,
                                 num_envs=3, seed=0)
        assert len(result.history) == 1
        assert np.isfinite(result.history[0]["episode_return"])

    def test_num_envs_validation(self, env):
        with pytest.raises(ValueError, match="num_envs"):
            train_scheduler(env, algo="a2c", iterations=1, num_envs=0)

    def test_act_batch_greedy_matches_serial(self, env):
        agent = A2CAgent(env.encoder.obs_dim, env.actions.n, A2CConfig(),
                         np.random.default_rng(0))
        obs = env.reset()
        mask = env.action_mask()
        a_serial, logp_serial = agent.policy.act(obs, agent.rng, mask=mask,
                                                 greedy=True)
        batch_obs = np.stack([obs, obs])
        batch_masks = np.stack([mask, mask])
        actions, logps = agent.policy.act_batch(batch_obs, agent.rng,
                                                masks=batch_masks, greedy=True)
        assert actions[0] == actions[1] == a_serial
        assert logps[0] == pytest.approx(logp_serial)

    def test_act_batch_respects_masks(self, env):
        agent = A2CAgent(env.encoder.obs_dim, env.actions.n, A2CConfig(),
                         np.random.default_rng(0))
        obs = np.stack([env.reset() for _ in range(4)])
        masks = np.zeros((4, env.actions.n), dtype=bool)
        masks[:, env.actions.noop_index] = True
        actions, _ = agent.policy.act_batch(obs, agent.rng, masks=masks)
        assert (actions == env.actions.noop_index).all()


class TestEventEngineEnv:
    def test_idle_fast_forward_preserves_return_and_metrics(self, scenario):
        """A sparse trace driven with engine='event' yields the same total
        reward and metrics as engine='tick', in fewer agent steps."""
        from repro.core.scheduler_env import EpisodeFactory, SchedulerEnv
        from repro.sim.job import Job

        def sparse(rng):
            jobs, t = [], 0
            for _ in range(4):
                t += 80
                jobs.append(Job(arrival_time=t, work=15.0, deadline=t + 30.0,
                                min_parallelism=1, max_parallelism=2,
                                affinity={"cpu": 1.0, "gpu": 2.0}))
            return jobs

        def run(engine):
            env = SchedulerEnv(
                EpisodeFactory(scenario.platforms, trace_factory=sparse),
                config=scenario.core, max_ticks=500, seed=0, engine=engine,
            )
            env.reset()
            total, steps = 0.0, 0
            done = False
            while not done and steps < 5000:
                _, r, done, info = env.step(env.actions.noop_index)
                total += r
                steps += 1
            return total, steps, info["metrics"]

        total_tick, steps_tick, m_tick = run("tick")
        total_event, steps_event, m_event = run("event")
        assert total_event == pytest.approx(total_tick)
        assert steps_event < steps_tick  # idle ticks were macro-stepped
        assert m_tick.as_dict() == m_event.as_dict()

    def test_invalid_engine_rejected(self, scenario):
        with pytest.raises(ValueError, match="engine"):
            scenario.train_env(seed=0).__class__(
                scenario.train_env(seed=0).factory, engine="warp")
