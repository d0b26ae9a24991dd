"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` installs wrappers of its own around the public
functions and methods each layer exposes (:data:`PROBES`), records one
span per call -- name, start, end and parent -- and restores the
originals when the traced block ends. Nothing under ``src/`` changes.

Self time is a span's duration minus the part of it covered by its
child spans. The process is single-threaded, so spans nest strictly and
self times sum to at most the traced wall time. Per-name aggregates
(calls, total and self time) are exact and O(1) in memory; the raw
spans kept for the Chrome trace are capped, so a long run cannot
exhaust memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["PROBES", "LAYER_METRICS", "Tracer", "nearest_rank"]


def _count_ticks(tracer: "Tracer", result, args) -> None:
    tracer.count("sim.fast_forwarded_ticks", int(result))


def _count_env_steps(tracer: "Tracer", result, args) -> None:
    tracer.count("rl.env_steps", len(args[1]))


def _count_checkpoint_bytes(tracer: "Tracer", result, args) -> None:
    tracer.count("serve.checkpoint_bytes", os.path.getsize(result))


def _count_in_flight(tracer: "Tracer", result, args) -> None:
    """Jobs running and queued after a live tick, and whether the running
    set is large enough for the kernel's vector path."""
    from repro.sim.soa import use_vector

    sim = args[0]
    running = sim.tables.run_count
    tracer.count("sim.running_job_ticks", running)
    tracer.count("sim.pending_job_ticks", len(sim.pending))
    tracer.count("sim.vector_ticks", int(use_vector(running)))
    tracer.peak("sim.running_jobs_max", running)


#: (span name, module, attribute, after-call hook). The attribute is a
#: module-level function or ``Class.method``. A function is replaced
#: wherever a ``repro`` module holds a reference to it, so names bound
#: by ``from x import f`` are covered too. Generators are traced per
#: ``next`` call, which is where their work happens.
PROBES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # ingest
    ("ingest.read_swf", "repro.workload.ingest.swf", "read_swf", None),
    ("ingest.normalize", "repro.workload.ingest.stream", "stream_normalize", None),
    ("ingest.normalize", "repro.workload.ingest.normalize", "normalize_records", None),
    ("ingest.save_shards", "repro.workload.traces", "save_trace_shards", None),
    # trace generation
    ("workload.generate_trace", "repro.workload.generator", "generate_trace", None),
    # kernel
    ("sim.init", "repro.sim.simulation", "Simulation.__init__", None),
    ("sim.advance_tick", "repro.sim.simulation", "Simulation.advance_tick",
     _count_in_flight),
    ("sim.fast_forward", "repro.sim.kernel", "EventKernel.fast_forward", _count_ticks),
    ("sim.metrics", "repro.sim.simulation", "Simulation.metrics", None),
    # decide
    ("baselines.schedule", "repro.baselines.base", "HeuristicScheduler.schedule", None),
    ("baselines.schedule", "repro.baselines.policies", "TetrisScheduler.schedule", None),
    ("baselines.schedule", "repro.baselines.policies", "RandomScheduler.schedule", None),
    # policy
    ("core.slot_views", "repro.core.views", "slot_views", None),
    ("core.encode_batch", "repro.core.state", "StateEncoder.encode_batch", None),
    ("core.mask_batch", "repro.core.actions", "SchedulingActionSpace.mask_batch", None),
    ("core.step_dynamics", "repro.core.scheduler_env", "SchedulerEnv.step_dynamics", None),
    ("core.imitation", "repro.core.imitation", "warm_start", None),
    # Validation is train_scheduler's call into evaluate_scheduler; the
    # runner installs this probe on the train workload only, because a
    # sweep cell calls the same function.
    ("core.validate", "repro.core.training", "evaluate_scheduler", None),
    ("rl.collect", "repro.rl.rollout", "collect_vec_episodes", None),
    ("rl.act_batch", "repro.rl.policies", "CategoricalPolicy.act_batch", None),
    ("rl.value_predict", "repro.rl.policies", "ValueFunction.predict", None),
    ("rl.ppo_update", "repro.rl.ppo", "PPOAgent.update", None),
    ("rl.vec_step", "repro.rl.vec_env", "VecEnv.step", _count_env_steps),
    ("nn.forward", "repro.nn.layers", "Sequential.forward", None),
    ("nn.backward", "repro.nn.layers", "Sequential.backward", None),
    ("nn.adam_step", "repro.nn.optim", "Adam.step", None),
    # harness
    ("harness.fingerprint", "repro.harness.cache", "fingerprint", None),
    ("harness.cache_get", "repro.harness.cache", "ResultCache.get", None),
    ("harness.cache_put", "repro.harness.cache", "ResultCache.put", None),
    ("harness.cell", "repro.harness.parallel", "run_cell", None),
    ("harness.plan_windows", "repro.harness.library", "plan_trace_windows", None),
    ("harness.merge", "repro.sim.metrics", "merge_segments", None),
    # serve
    ("serve.frame", "repro.serve.protocol", "encode_message", None),
    ("serve.frame", "repro.serve.protocol", "decode_line", None),
    ("serve.handle", "repro.serve.service", "SchedulerService.handle", None),
    ("serve.submit", "repro.serve.service", "SchedulerService.submit", None),
    ("serve.advance_to", "repro.sim.kernel", "EventKernel.advance_to", None),
    ("serve.checkpoint", "repro.serve.service", "SchedulerService.checkpoint", None),
    ("serve.snapshot", "repro.sim.snapshot", "snapshot_simulation", None),
    ("serve.checkpoint_write", "repro.serve.checkpoint", "write_checkpoint",
     _count_checkpoint_bytes),
    ("serve.drain", "repro.serve.service", "SchedulerService.drain", None),
)

#: The per-layer metrics a traced run reports, by layer, with units.
#: ``.calls`` and ``.self_s`` read span aggregates; the rest are
#: counters the workloads read from surfaces the program already has
#: (``IngestStats``, ``ResultCache.stats``, ``SchedulerService.stats``)
#: or that the probe hooks above count.
LAYER_METRICS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "ingest": (
        ("ingest.read_swf.self_s", "s"), ("ingest.normalize.self_s", "s"),
        ("ingest.save_shards.self_s", "s"), ("ingest.records", "count"),
        ("ingest.jobs", "count"), ("ingest.unusable", "count"),
    ),
    "workload": (("workload.generate_trace.self_s", "s"),),
    "kernel": (
        ("sim.advance_tick.calls", "count"), ("sim.advance_tick.self_s", "s"),
        ("sim.fast_forward.calls", "count"), ("sim.fast_forward.self_s", "s"),
        ("sim.fast_forwarded_ticks", "count"), ("sim.init.self_s", "s"),
        ("sim.metrics.self_s", "s"),
    ),
    "decide": (
        ("baselines.schedule.calls", "count"), ("baselines.schedule.self_s", "s"),
    ),
    "policy": (
        ("core.slot_views.self_s", "s"), ("core.encode_batch.calls", "count"),
        ("core.encode_batch.self_s", "s"), ("core.mask_batch.self_s", "s"),
        ("core.step_dynamics.calls", "count"), ("core.step_dynamics.self_s", "s"),
        ("core.imitation.self_s", "s"), ("core.validate.self_s", "s"),
        ("rl.collect.self_s", "s"), ("rl.act_batch.self_s", "s"),
        ("rl.value_predict.self_s", "s"), ("rl.ppo_update.calls", "count"),
        ("rl.ppo_update.self_s", "s"), ("rl.env_steps", "count"),
        ("nn.forward.calls", "count"), ("nn.forward.self_s", "s"),
        ("nn.backward.self_s", "s"), ("nn.adam_step.self_s", "s"),
    ),
    "harness": (
        ("harness.fingerprint.calls", "count"), ("harness.fingerprint.self_s", "s"),
        ("harness.cache_get.self_s", "s"), ("harness.cache_hits", "count"),
        ("harness.cache_misses", "count"), ("harness.cache_put.self_s", "s"),
        ("harness.cache_bytes_written", "B"), ("harness.cell.self_s", "s"),
        ("harness.plan_windows.self_s", "s"), ("harness.merge.self_s", "s"),
    ),
    "serve": (
        ("serve.frame.self_s", "s"), ("serve.submit.calls", "count"),
        ("serve.advance_to.self_s", "s"), ("serve.decide.p50_us", "us"),
        ("serve.decide.p99_us", "us"), ("serve.checkpoint.calls", "count"),
        ("serve.snapshot.self_s", "s"), ("serve.checkpoint_write.self_s", "s"),
        ("serve.checkpoint.p99_ms", "ms"), ("serve.checkpoint_bytes", "B"),
        ("serve.drain.self_s", "s"), ("serve.rejected", "count"),
    ),
}


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``; 0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Spans kept for the Chrome trace; aggregates count every span.
MAX_EVENTS = 100_000
#: Spans whose every duration is kept, for percentiles.
SAMPLED = ("serve.checkpoint",)


class Tracer:
    """In-memory span recorder plus the probe wrappers that feed it."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.t0_ns = time.perf_counter_ns()
        self.stats: Dict[str, List[int]] = {}      # name -> [calls, total, self]
        self.counters: Dict[str, int] = {}
        self.samples: Dict[str, List[int]] = {name: [] for name in SAMPLED}
        self.events: List[tuple] = []              # (name, start, dur, parent)
        self.max_events = max_events
        self.dropped = 0
        self._stack: List[list] = []               # [name, start_ns, child_ns]
        self._wrapped: Dict[int, tuple] = {}       # id -> (wrapper, original)
        self._undo: List[tuple] = []               # (owner, attr, original)

    # --- spans -----------------------------------------------------------
    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def end(self) -> None:
        end = time.perf_counter_ns()
        name, start, child = self._stack.pop()
        dur = end - start
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(dur)
        if len(self.events) < self.max_events:
            self.events.append((name, start, dur,
                                parent[0] if parent is not None else None))
        else:
            self.dropped += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: int) -> None:
        """Keep the largest ``value`` seen; name it ``*_max``, which the
        runner combines across rounds by maximum rather than mean."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    # --- probes ----------------------------------------------------------
    def _iterate(self, name: str, it):
        """Re-yield ``it`` with each ``next`` call recorded as a span."""
        try:
            while True:
                self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                yield item
        finally:
            it.close()

    def _wrap(self, name: str, fn, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == name:   # super() chains: one span
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, result, args)
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(name, result)
            return result

        self._wrapped[id(wrapper)] = (wrapper, fn)
        return wrapper

    def install(self, probes) -> None:
        for name, module, attr, after in probes:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, after))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, after)
            for owner in list(sys.modules.values()):
                if not getattr(owner, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        # A module imported while the probes were live may have bound a
        # wrapper by name; put the original back there too.
        for owner in list(sys.modules.values()):
            if not getattr(owner, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(owner).items()):
                pair = self._wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(owner, key, pair[1])
        self._wrapped.clear()

    @contextmanager
    def installed(self, probes):
        self.install(probes)
        try:
            yield self
        finally:
            self.uninstall()

    # --- reports ---------------------------------------------------------
    def write_chrome(self, path: str, metadata: dict) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (start - self.t0_ns) / 1e3, "dur": dur / 1e3,
             "pid": 1, "tid": 1, "args": {"parent": parent}}
            for name, start, dur, parent in self.events
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, fh)
