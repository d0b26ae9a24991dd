"""The scheduling MDP: a Gym-style environment over the cluster simulator.

Follows DeepRM's multi-decision-per-tick convention: within one simulator
tick the agent may take several scheduling actions (admissions, grows,
shrinks) with zero intermediate reward; when it emits **no-op** — or
exhausts the per-tick action budget — simulated time advances one tick
and the deadline-aware tick reward is returned.

Episodes are generated by an :class:`EpisodeFactory` that samples a fresh
workload trace per reset (train mode) or replays a fixed list of traces
round-robin (evaluation mode).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import SchedulingActionSpace
from repro.core.config import CoreConfig
from repro.core.reward import tick_reward
from repro.core.state import StateEncoder
from repro.core.views import slot_views
from repro.rl.env import Env
from repro.sim.events import EventKind
from repro.sim.job import Job
from repro.sim.platform import Platform
from repro.sim.simulation import Simulation, SimulationConfig

__all__ = ["EpisodeFactory", "SchedulerEnv"]

TraceFactory = Callable[[np.random.Generator], List[Job]]


class EpisodeFactory:
    """Produces the (platforms, jobs) pair for each episode.

    ``trace_factory(rng)`` is called on every reset in sampling mode; in
    replay mode (``fixed_traces``) traces are cycled deterministically so
    evaluation sweeps are paired across schedulers.
    """

    def __init__(
        self,
        platforms: Sequence[Platform],
        trace_factory: Optional[TraceFactory] = None,
        fixed_traces: Optional[Sequence[List[Job]]] = None,
    ) -> None:
        if (trace_factory is None) == (fixed_traces is None):
            raise ValueError("provide exactly one of trace_factory / fixed_traces")
        if fixed_traces is not None and not fixed_traces:
            raise ValueError("fixed_traces must be non-empty")
        self.platforms = list(platforms)
        self.trace_factory = trace_factory
        self.fixed_traces = list(fixed_traces) if fixed_traces is not None else None
        self._cursor = 0

    def next_trace(self, rng: np.random.Generator) -> List[Job]:
        """Sample (or cycle to) the next episode's job trace."""
        if self.trace_factory is not None:
            return self.trace_factory(rng)
        assert self.fixed_traces is not None
        trace = self.fixed_traces[self._cursor % len(self.fixed_traces)]
        self._cursor += 1
        return trace

    def build_sim(self, rng: np.random.Generator,
                  config: SimulationConfig) -> Simulation:
        """Construct one episode's simulation (fresh Job objects).

        Subclasses (e.g. :class:`repro.dag.env.DAGEpisodeFactory`) may
        build different Simulation subclasses; the environment only
        relies on the tick protocol.
        """
        jobs = [j.clone_pending() for j in self.next_trace(rng)]
        return Simulation(self.platforms, jobs, config)


class SchedulerEnv(Env):
    """Masked-discrete-action MDP over :class:`~repro.sim.Simulation`.

    ``engine`` selects the time-advance driver: ``"tick"`` advances one
    dense tick per no-op; ``"event"`` additionally fast-forwards through
    *fully idle* stretches (no pending, no running jobs) after each tick
    via the :class:`~repro.sim.kernel.EventKernel`. Idle ticks carry
    exactly zero reward (every reward term vanishes on an empty system),
    so the episode return and the final metrics are unchanged — only the
    number of agent steps shrinks (idle macro-stepping).
    """

    def __init__(
        self,
        factory: EpisodeFactory,
        config: CoreConfig = CoreConfig(),
        max_ticks: int = 600,
        drop_on_miss: bool = False,
        seed: int = 0,
        work_scale: float = 25.0,
        engine: str = "tick",
    ) -> None:
        # Captured before any validation mutates locals: clone() rebuilds
        # a sibling from exactly these arguments, so an option added to
        # this signature is automatically carried into clones instead of
        # being silently dropped by a hand-maintained argument list.
        ctor_kwargs = dict(locals())
        ctor_kwargs.pop("self")
        if max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")
        if engine not in ("tick", "event"):
            raise ValueError(f"engine must be 'tick' or 'event', got {engine!r}")
        self._ctor_kwargs = ctor_kwargs
        self.factory = factory
        self.config = config
        self.max_ticks = max_ticks
        self.drop_on_miss = drop_on_miss
        self.engine = engine
        self.rng = np.random.default_rng(seed)
        platform_names = [p.name for p in factory.platforms]
        self.encoder = StateEncoder(config, platform_names, work_scale=work_scale)
        self.actions = SchedulingActionSpace(config, platform_names)
        self.sim: Optional[Simulation] = None
        self._views: Optional[Tuple[List[Job], List[Job]]] = None
        self._kernel = None
        self._actions_this_tick = 0
        self._log_cursor = 0

    def clone(self, seed: Optional[int] = None) -> "SchedulerEnv":
        """A sibling environment with this one's *full* configuration.

        Every constructor argument is carried over (the episode factory is
        shared, matching :class:`EpisodeFactory` semantics: sampling-mode
        factories are stateless, replay-mode factories deal traces across
        clones); only the RNG seed may be overridden. This is the one safe
        way to build sibling environments — hand-listing constructor
        arguments silently drops any option added later.
        """
        kwargs = dict(self._ctor_kwargs)
        if seed is not None:
            kwargs["seed"] = seed
        return type(self)(**kwargs)

    # --- Env API ---------------------------------------------------------------
    def reset(self, seed: Optional[int] = None) -> np.ndarray:
        self.reset_state(seed)
        return self.encoder.encode(self.sim, self.views())

    def reset_state(self, seed: Optional[int] = None) -> None:
        """Start a new episode without encoding the first observation.

        The vectorized environment uses this split so observations can be
        encoded batched across environments.
        """
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        # Fresh Job objects each episode: the factory constructs them
        # (replaying fixed traces clones them there).
        self.sim = self.factory.build_sim(
            self.rng,
            SimulationConfig(drop_on_miss=self.drop_on_miss, horizon=self.max_ticks),
        )
        if self.engine == "event":
            from repro.sim.kernel import EventKernel

            self._kernel = EventKernel(self.sim)
        self._actions_this_tick = 0
        self._log_cursor = len(self.sim.log)
        self._views = None

    def views(self) -> Tuple[List[Job], List[Job]]:
        """The current state's ``(queue, running)`` slot views.

        Computed once per state (:func:`~repro.core.views.slot_views`)
        and shared by its observation, its action mask and the action
        applied to it; :meth:`step_dynamics` and :meth:`reset_state`
        drop the pair.
        """
        if self._views is None:
            if self.sim is None:
                raise RuntimeError("call reset() first")
            cfg = self.config
            self._views = slot_views(self.sim, cfg.queue_slots,
                                     cfg.running_slots)
        return self._views

    def action_mask(self) -> np.ndarray:
        return self.actions.mask(self.sim, self.views())

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        reward, done, info = self.step_dynamics(action)
        return self.encoder.encode(self.sim, self.views()), reward, done, info

    def step_dynamics(self, action: int) -> Tuple[float, bool, Dict[str, Any]]:
        """Apply one action and advance the MDP, without encoding the
        next observation (the vectorized environment encodes batched).
        """
        if self.sim is None:
            raise RuntimeError("call reset() first")
        sim = self.sim
        views, self._views = self._views, None
        info: Dict[str, Any] = {}
        is_noop = action == self.actions.noop_index
        if not is_noop and self._actions_this_tick < self.config.actions_per_tick:
            self.actions.apply(sim, action, views=views)
            self._actions_this_tick += 1
            budget_left = self._actions_this_tick < self.config.actions_per_tick
            if budget_left:
                return 0.0, False, info
        # No-op (or exhausted budget): advance one tick and score it.
        sim.advance_tick()
        self._actions_this_tick = 0
        utilization = sim.utilization_series[-1] if sim.utilization_series else 0.0
        newly_missed, missed_weight = self._drain_miss_events()
        reward = tick_reward(sim, self.config.reward, newly_missed, missed_weight,
                             utilization)
        if self._kernel is not None:
            # Idle macro-step: with no policy attached the kernel only
            # skips fully idle ticks, each worth exactly zero reward.
            skipped = self._kernel.fast_forward()
            if skipped:
                self._log_cursor = len(sim.log.events)
        done = sim.is_done()
        if done:
            info["metrics"] = sim.metrics()
        return reward, done, info

    # --- helpers -----------------------------------------------------------------
    def _drain_miss_events(self) -> Tuple[int, float]:
        """Count deadline misses since the last drain.

        Policy rejections (``DROP`` with detail ``"policy-reject"``)
        count as misses too: the shed job never emits a MISS event (it
        leaves the queue before its deadline passes), but it *is* a miss
        and must carry the same penalty — otherwise rejecting would
        launder the miss out of the return.
        """
        assert self.sim is not None
        jobs = self.sim._all_jobs
        events = self.sim.log.events
        count = 0
        weight = 0.0
        for e in events[self._log_cursor :]:
            is_miss = e.kind is EventKind.MISS
            is_reject = e.kind is EventKind.DROP and e.detail == "policy-reject"
            if is_miss or is_reject:
                count += 1
                weight += jobs[e.job_id].weight
        self._log_cursor = len(events)
        return count, weight
