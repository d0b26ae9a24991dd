"""Event-driven simulation kernel with idle-tick fast-forward.

The tick-loop driver (:meth:`~repro.sim.simulation.Simulation.drive`)
burns one full Python iteration per simulated tick — policy invocation,
utilization sampling, per-job progress, miss/arrival bookkeeping — even
across long stretches where provably nothing can happen. This kernel
decouples simulated time from wall-clock cost: it projects the next
*future event* (next job arrival, earliest projected completion,
earliest deadline expiry, the simulation horizon, and policy-requested
wakeups) and advances ``now`` directly to it, fast-forwarding the
uneventful ticks in bulk.

Equivalence contract
--------------------
The kernel reproduces the tick loop **bit-for-bit**: the same
:class:`~repro.sim.metrics.MetricsReport`, the same event log (including
one ``TICK`` event per simulated tick), the same utilization series, and
the same floating-point job progress. Three rules make this possible:

1. A tick is only skipped when it is *provably uneventful*: no arrival
   is admitted, no job completes, no deadline miss is recorded, the
   fault process cannot draw randomness, and the policy is guaranteed
   to be a no-op (see below). Every eventful tick runs through the
   ordinary :meth:`Simulation.advance_tick` path.
2. Skipped ticks replay the per-tick observable effects exactly:
   utilization samples are appended (the value is constant while
   allocations are frozen), ``TICK`` events are logged, the energy
   meter steps, and job progress accrues by *repeated addition* — the
   same float operation sequence as the tick loop, so completion
   thresholds are crossed on exactly the same tick.
3. Completion projections are conservative (one tick of safety margin
   below the analytic crossing point), so floating-point drift can
   never cause a skipped completion; the final approach to every event
   always runs as real ticks.

Policy quiescence
-----------------
Whether the scheduling policy may be skipped during an idle stretch is
declared by the policy itself through a ``quiescence`` attribute:

* ``"none"`` (default) — the policy must be invoked every tick; the
  kernel degenerates to the tick loop (still correct, never faster).
* ``"queue"`` — ``schedule(sim)`` is a no-op (and consumes no RNG)
  whenever the pending queue is empty. True for admission-only
  heuristics (FIFO/SJF/EDF/LLF/Tetris/Random/backfill).
* ``"idle"`` — ``schedule(sim)`` is a no-op only when the pending queue
  *and* the running set are both empty. True for elastic heuristics
  (which may grow/shrink running jobs) and for greedy DRL decoding.

A policy may additionally implement ``next_wakeup(sim) -> int | None``
to request reactivation at a specific future tick (e.g. a periodic
rebalancer); no fast-forward span jumps past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim import soa

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulation import Simulation

__all__ = ["KernelStats", "EventKernel", "policy_quiescence"]

# Spans with no bounding event are chunked so a pathological policyless
# run (pending jobs nobody ever admits, no horizon) still makes the same
# (infinite) progress the tick loop would, instead of hanging in one call.
_UNBOUNDED_CHUNK = 1 << 16


@dataclass
class KernelStats:
    """Wall-clock-relevant counters of one kernel run."""

    decision_ticks: int = 0      # ticks executed through advance_tick
    fast_forwarded: int = 0      # ticks skipped in bulk
    spans: int = 0               # number of fast-forward spans applied


def policy_quiescence(policy) -> str:
    """The policy's declared quiescence level (``"none"`` when absent)."""
    if policy is None:
        return "idle"
    level = getattr(policy, "quiescence", "none")
    if level not in ("none", "queue", "idle"):
        raise ValueError(f"invalid policy quiescence {level!r}")
    return level


class EventKernel:
    """Event-driven driver over a :class:`~repro.sim.Simulation`.

    Parameters
    ----------
    sim:
        The simulation to drive (flat or DAG — any ``advance_tick``
        subclass works; completions always end a fast-forward span, so
        DAG stage releases happen on real ticks).
    policy:
        Optional scheduling policy with ``schedule(sim)``; invoked
        exactly as the tick loop would, except on ticks where its
        declared quiescence proves the call is a no-op.
    """

    def __init__(self, sim: "Simulation", policy=None) -> None:
        self.sim = sim
        self.policy = policy
        self.stats = KernelStats()
        # The quiescence contract is a class-level declaration; resolving
        # it once keeps the per-decision-point heap rebuild lean.
        self._quiescence = policy_quiescence(policy)
        self._wakeup_fn = getattr(policy, "next_wakeup", None)

    # --- driving ---------------------------------------------------------------
    def drive(self, max_ticks: Optional[int] = None) -> None:
        """Drive the simulation to completion without reducing it;
        mirrors ``Simulation.drive``."""
        sim = self.sim
        limit = max_ticks if max_ticks is not None else sim.config.horizon
        ticks = 0
        while not sim.is_done():
            if self.policy is not None:
                self.policy.schedule(sim)
            sim.advance_tick()
            self.stats.decision_ticks += 1
            ticks += 1
            if limit is not None and ticks >= limit:
                break
            ticks += self.fast_forward(None if limit is None else limit - ticks)
            if limit is not None and ticks >= limit:
                break

    def advance_to(self, target: int) -> int:
        """Run the simulation forward until ``sim.now == target``.

        The online-serving watermark primitive: before injecting a job
        that arrives at tick ``target``, the server drives the kernel to
        exactly that tick. Unlike :meth:`drive`, this keeps ticking through
        states where :meth:`Simulation.is_done` is transiently true — a
        batch run holding the not-yet-submitted tail of the trace would
        not be done at the same tick, and must log the same ``TICK``
        events, utilization samples, and energy steps across the gap.

        Every tick either runs live through ``advance_tick`` (identical
        to the tick loop) or is fast-forwarded under the same
        provably-uneventful conditions as :meth:`fast_forward`, with the
        span additionally capped to land exactly on ``target`` — safe
        because the first projected event sits strictly beyond any tick
        the cap trims. ``target`` is clamped to the horizon. Returns the
        number of ticks advanced.
        """
        sim = self.sim
        if sim.config.horizon is not None:
            target = min(target, sim.config.horizon)
        start = sim.now
        while sim.now < target:
            if self.policy is not None:
                self.policy.schedule(sim)
            sim.advance_tick()
            self.stats.decision_ticks += 1
            if sim.now >= target:
                break
            nxt = self._future_events()
            if nxt is None:
                continue
            span = min(nxt - sim.now - 1, target - sim.now)
            if span <= 0:
                continue
            self._apply_span(span)
            self.stats.spans += 1
        return sim.now - start

    def fast_forward(self, budget: Optional[int] = None) -> int:
        """Skip provably-uneventful ticks in bulk; returns ticks skipped.

        Safe to call at any tick boundary (arrivals already admitted).
        With ``budget`` given, at most that many ticks are skipped.
        """
        if self.sim.is_done():
            return 0
        nxt = self._future_events()
        if nxt is None:
            return 0
        span = nxt - self.sim.now - 1  # the tick *reaching* the event runs live
        if budget is not None:
            span = min(span, budget)
        if span <= 0:
            return 0
        self._apply_span(span)
        self.stats.spans += 1
        return span

    # --- projecting the next future event -----------------------------------------
    def _future_events(self) -> Optional[int]:
        """Project the next future event, or None when skipping is unsafe.

        Returns the first tick at which something observable happens
        (an arrival, a projected completion, a deadline expiry, the
        horizon or a policy-requested wakeup); every tick strictly
        before it is provably uneventful. The projection is invalidated
        by any state change and rebuilt at each decision point, so only
        its minimum is ever consumed -- it is computed directly.
        """
        sim = self.sim
        level = self._quiescence
        if level == "none":
            return None
        if sim.pending:
            return None  # any queue-aware policy may admit every tick
        if sim.fault_injector is not None and not self._injector_quiescent():
            return None  # the fault process draws RNG every tick
        n_running = len(sim.cluster._allocations)
        if n_running and level == "idle":
            return None

        now = sim.now
        best = now + 1 + _UNBOUNDED_CHUNK
        if sim.config.horizon is not None:
            # The tick that lands exactly on the horizon is an ordinary
            # tick (the loop stops *after* it), so the event sits past it.
            best = min(best, sim.config.horizon + 1)
        if sim._future and sim._next_arrival < best:
            best = sim._next_arrival
        if n_running:
            # Per running job: the conservative completion bound (rule 3
            # above) and the first integer tick strictly past an unmissed
            # deadline.
            t = sim.tables
            if soa.use_vector(n_running):
                # Two min-reductions replace the per-job projections;
                # the minimum is the same tick.
                slots = t.running_slots()
                safe = np.floor(
                    (t.work[slots] - 1e-9 - t.progress[slots])
                    / t.rate[slots]) - 1.0
                best = min(best, now + max(int(safe.min()), 0) + 1)
                unmissed = ~t.miss[slots]
                if unmissed.any():
                    dmin = float(t.deadline[slots][unmissed].min())
                    best = min(best, math.floor(dmin) + 1)
            else:
                # Scalar-column projection for small running sets, in
                # allocation order, without the view-descriptor overhead.
                for alloc in sim.cluster._allocations.values():
                    s = alloc.job._slot
                    safe = math.floor(
                        (t.work.item(s) - 1e-9 - t.progress.item(s))
                        / t.rate.item(s)) - 1
                    tick = now + max(safe, 0) + 1
                    if tick < best:
                        best = tick
                    if not t.miss.item(s):
                        tick = math.floor(t.deadline.item(s)) + 1
                        if tick < best:
                            best = tick
        if callable(self._wakeup_fn):
            wakeup = self._wakeup_fn(sim)
            if wakeup is not None and int(wakeup) < best:
                best = int(wakeup)
        return best

    def _injector_quiescent(self) -> bool:
        """True when the fault process provably draws no randomness.

        Requires every modelled platform to have zero failure probability
        and no offline units (repairs also draw per-tick randomness, and
        downtime counters accumulate while units are offline).
        """
        sim = self.sim
        injector = sim.fault_injector
        for name in sim.cluster.platform_names:
            model = injector.models.get(name)
            if model is None:
                continue
            if model.fail_prob != 0.0 or sim.cluster.offline_units(name) != 0:
                return False
        return True

    # --- bulk application -----------------------------------------------------------
    def _apply_span(self, span: int) -> None:
        """Replay ``span`` uneventful ticks' observable effects in bulk."""
        sim = self.sim
        cluster = sim.cluster
        start = sim.now
        # Utilization is constant while allocations are frozen; the tick
        # loop appends the same recomputed float each tick.
        u = cluster.utilization()
        sim.utilization_series.extend([u] * span)
        if sim.energy_meter is not None:
            sim.energy_meter.step_span(cluster, span)
        # Closed-form accrual where provably bit-equal to repeated
        # addition, batched repeated addition elsewhere.
        soa.apply_span_progress(sim.tables, sim.tables.running_slots(), span)
        sim.log.record_tick_span(start + 1, start + span)
        sim.now = start + span
        self.stats.fast_forwarded += span
