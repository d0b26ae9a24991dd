"""Transport-free core of the scheduling service.

:class:`SchedulerService` owns one live simulation plus the serving
bookkeeping (submission count, decision log cursor, base snapshot and
op journal) and handles protocol messages as plain dicts — the asyncio
socket server, the benchmarks, and the tests all drive this same
object, so transport code stays out of the correctness path.

Equivalence with the batch path
-------------------------------
A submission at arrival tick ``a`` first advances the kernel to exactly
``a`` (:meth:`EventKernel.advance_to`) and then injects the job
(:meth:`Simulation.inject_job`). The batch run holding the full trace
executes the same tick sequence: every tick the watermark walk runs
live is a tick the batch engines also run (or fast-forward with
bit-identical bulk effects), extra policy invocations at watermark
boundaries are no-ops under the declared quiescence contract (and
consume no RNG), and same-tick submissions in client order reproduce
the constructor's stable sort by arrival. ``drain`` then runs the kernel
to completion with the same horizon arithmetic as
``run_policy(max_ticks=...)``. Final metrics are therefore byte-equal
to ``Simulation(platforms, trace, ...).run_policy(policy, max_ticks)``.

The served simulation starts empty and adopts each submission as it
arrives, so a job's ``job_id`` (its slot) is its submission index: the
decisions name jobs by it directly.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    append_journal,
    base_digest,
    checkpoint_path,
    journal_path,
    load_checkpoint,
    recover_journal,
    write_checkpoint,
)
from repro.serve.latency import LatencyRecorder, TimedPolicy
from repro.serve.protocol import PROTOCOL, metrics_payload
from repro.sim.events import EventKind
from repro.sim.kernel import EventKernel
from repro.sim.platform import Platform
from repro.sim.simulation import Simulation, SimulationConfig
from repro.sim.snapshot import restore_simulation, snapshot_simulation
from repro.util.errors import InputError

__all__ = ["SchedulerService"]

#: Event kinds surfaced to clients as decisions (TICK and ARRIVAL are
#: protocol noise: the client caused the arrival and clocks the ticks).
_DECISION_KINDS = frozenset(
    kind for kind in EventKind
    if kind not in (EventKind.TICK, EventKind.ARRIVAL)
)

#: The ops whose accepted frames change state, and so are journaled.
_JOURNALED_OPS = ("submit", "advance", "drain")


class SchedulerService:
    """One live scheduling run behind the wire protocol.

    Parameters
    ----------
    platforms:
        The cluster shape (normally ``scenario.platforms``).
    policy:
        Scheduling policy with ``schedule(sim)``; wrapped in a
        :class:`TimedPolicy` so every decision pass is latency-sampled.
    max_ticks:
        Simulation horizon (at least 1), identical in meaning to the
        batch ``run_policy(max_ticks=...)`` argument.
    state_dir:
        Directory for the base snapshot and op journal
        (:mod:`repro.serve.checkpoint`); ``None`` disables checkpointing
        (and restart recovery). A restart continues only the session it
        checkpointed: platforms, ``max_ticks``, ``drop_on_miss`` and
        ``policy_desc`` must equal the base's, or it is refused.
    checkpoint_every:
        Make accepted ``submit``/``advance`` frames durable in batches
        of N: the journal is appended and fsynced once N are buffered,
        and on ``drain``. ``checkpoint``/``shutdown`` write a new base.
        0 journals nothing: only ``drain``/``checkpoint``/``shutdown``
        persist, each by writing a base.
    policy_desc:
        Human-readable policy identity echoed by ``hello``.
    """

    def __init__(
        self,
        platforms: Sequence[Platform],
        policy,
        *,
        max_ticks: int,
        drop_on_miss: bool = False,
        state_dir: Optional[str] = None,
        checkpoint_every: int = 64,
        policy_desc: str = "policy",
    ) -> None:
        if max_ticks is None or max_ticks < 1:
            raise ValueError(f"max_ticks must be at least 1, got {max_ticks}")
        self.state_dir = os.fspath(state_dir) if state_dir is not None else None
        self.checkpoint_every = int(checkpoint_every)
        self.policy_desc = policy_desc
        self.recorder = LatencyRecorder()
        self._raw_policy = policy
        self.policy = TimedPolicy(policy, self.recorder)
        self.resumed = False
        self.drained = False
        # ``_head`` is the digest the next journal line chains from (None
        # until a base exists); ``_pending`` holds accepted frames not
        # yet flushed. ``_durable`` stays off while the journal replays,
        # so replayed frames are not journaled a second time.
        self._head: Optional[str] = None
        self._pending: List[dict] = []
        self._durable = False

        checkpoint = (load_checkpoint(self.state_dir)
                      if self.state_dir is not None else None)
        if checkpoint is not None:
            try:
                self.sim = restore_simulation(checkpoint["sim"])
                self._check_session(checkpoint["policy"], platforms,
                                    max_ticks, drop_on_miss)
                self.n_submitted = int(checkpoint["n_submitted"])
                if self.n_submitted != len(self.sim._all_jobs):
                    raise ValueError(
                        f"n_submitted {self.n_submitted} is not the "
                        f"{len(self.sim._all_jobs)} jobs of the snapshot")
                self._log_cursor = int(checkpoint["log_cursor"])
                self.drained = bool(checkpoint.get("drained", False))
                self._restore_policy_rng(checkpoint.get("policy_rng"))
            except InputError:
                raise
            except (KeyError, IndexError, TypeError, ValueError,
                    AttributeError) as exc:
                raise InputError(f"{checkpoint_path(self.state_dir)}: "
                                 f"cannot restore the base ({exc!r})") \
                    from None
            self.resumed = True
        else:
            self.sim = Simulation(
                list(platforms), [],
                SimulationConfig(drop_on_miss=drop_on_miss, horizon=max_ticks),
            )
            self.n_submitted = 0
            self._log_cursor = 0
        self.kernel = EventKernel(self.sim, self.policy)
        if checkpoint is not None:
            frames, self._head = recover_journal(self.state_dir)
            self._replay(frames)
        self._durable = self.state_dir is not None

    def _check_session(self, policy_desc, platforms, max_ticks,
                       drop_on_miss) -> None:
        """Refuse a restart whose settings are not the checkpointed
        session's, before any journal frame replays."""
        config = self.sim.config
        for field, base, asked in (
                ("platforms", list(self.sim.cluster.platforms.values()),
                 list(platforms)),
                ("max_ticks", config.horizon, max_ticks),
                ("drop_on_miss", config.drop_on_miss, drop_on_miss),
                ("policy", policy_desc, self.policy_desc)):
            if base != asked:
                raise InputError(
                    f"{self.state_dir}: the checkpointed session has "
                    f"{field} {base!r}, not {asked!r}; restart it with its "
                    f"own settings or use another state dir")

    # --- policy RNG persistence ------------------------------------------------
    def _policy_rng_state(self):
        rng = getattr(self._raw_policy, "rng", None)
        if isinstance(rng, np.random.Generator):
            return rng.bit_generator.state
        return None

    def _restore_policy_rng(self, state) -> None:
        if state is None:
            return
        rng = getattr(self._raw_policy, "rng", None)
        if not isinstance(rng, np.random.Generator):
            raise ValueError(
                "checkpoint carries policy RNG state but the loaded policy "
                "has no numpy Generator 'rng'")
        bit_gen = getattr(np.random, state["bit_generator"])()
        bit_gen.state = state
        self._raw_policy.rng = np.random.Generator(bit_gen)

    # --- checkpointing ---------------------------------------------------------
    def checkpoint(self) -> Optional[str]:
        """Write a new base and empty the journal; returns the base's path
        (None if disabled)."""
        if self.state_dir is None:
            return None
        payload = {
            "format": CHECKPOINT_FORMAT,
            "protocol": PROTOCOL,
            "policy": self.policy_desc,
            "sim": snapshot_simulation(self.sim),
            "n_submitted": self.n_submitted,
            "log_cursor": self._log_cursor,
            "drained": self.drained,
            "policy_rng": self._policy_rng_state(),
        }
        path = write_checkpoint(self.state_dir, payload)
        self._head = base_digest(self.state_dir)
        self._pending.clear()
        return path

    def _record(self, frame: dict) -> None:
        """Buffer an accepted state-changing frame; flush at the cadence."""
        if self._durable and self.checkpoint_every > 0:
            self._pending.append(frame)
            if len(self._pending) >= self.checkpoint_every:
                self._flush()

    def _flush(self) -> None:
        """Make every accepted frame durable: append the buffer to the
        journal, or write a base when there is none yet or no journal."""
        if not self._durable:
            return
        if self._head is None or self.checkpoint_every <= 0:
            self.checkpoint()
        elif self._pending:
            self._head = append_journal(self.state_dir, self._pending,
                                        self._head)
            self._pending.clear()

    def _replay(self, frames: List[dict]) -> None:
        """Re-apply the journal's frames through :meth:`handle`."""
        for number, frame in enumerate(frames, 1):
            op = frame.get("op")
            reply = (self.handle(frame) if op in _JOURNALED_OPS
                     else {"ok": False, "error": f"unknown op {op!r}"})
            if not reply["ok"]:
                raise InputError(
                    f"{journal_path(self.state_dir)}:{number}: journaled "
                    f"{op!r} frame failed on replay: {reply['error']}")

    # --- decision draining -----------------------------------------------------
    def _drain_decisions(self) -> List[dict]:
        events = self.sim.log.events
        out: List[dict] = []
        for event in events[self._log_cursor:]:
            if event.kind not in _DECISION_KINDS:
                continue
            out.append({
                "tick": event.time,
                "kind": event.kind.value,
                "job": event.job_id,
                "platform": event.platform,
                "parallelism": event.parallelism,
            })
        self._log_cursor = len(events)
        return out

    # --- ops -------------------------------------------------------------------
    def hello(self) -> dict:
        return {
            "ok": True, "op": "hello",
            "protocol": PROTOCOL,
            "policy": self.policy_desc,
            "now": self.sim.now,
            "n_submitted": self.n_submitted,
            "max_ticks": self.sim.config.horizon,
            "resumed": self.resumed,
            "drained": self.drained,
        }

    def submit(self, job_payload: dict, index: Optional[int] = None) -> dict:
        from repro.workload.traces import jobs_from_payload

        if self.drained:
            raise ValueError("run already drained; no further submissions")
        if index is not None:
            # Exactly int, as for advance's 'to': int() would take 0.7,
            # "0" and true for indices.
            if type(index) is not int:
                raise ValueError(
                    f"submit 'index' must be an integer, got {index!r}")
            if index != self.n_submitted:
                raise ValueError(
                    f"expected submission index {self.n_submitted}, got {index}")
        job = jobs_from_payload([job_payload])[0]
        served = self.sim.cluster.platforms
        if not any(name in served for name in job.affinity):
            raise ValueError(
                f"job affinity names none of the served platforms "
                f"{sorted(served)}: {sorted(job.affinity)}")
        arrival = job.arrival_time
        if self.sim._all_jobs:
            last = self.sim._all_jobs[-1].arrival_time
            if arrival < last:
                raise ValueError(
                    f"submissions must arrive in non-decreasing arrival order "
                    f"(got {arrival} after {last})")
        self.kernel.advance_to(arrival)
        self.sim.inject_job(job)
        submitted_index = self.n_submitted
        self.n_submitted += 1
        decisions = self._drain_decisions()
        self._record({"op": "submit", "index": submitted_index,
                      "job": job_payload})
        return {
            "ok": True, "op": "submit",
            "index": submitted_index,
            "now": self.sim.now,
            "decisions": decisions,
        }

    def advance(self, to: int) -> dict:
        # Exactly int: bool is an int subclass, and int() would coerce
        # floats and strings (and overflow on Infinity).
        if type(to) is not int:
            raise ValueError(
                f"advance 'to' must be an integer tick, got {to!r}")
        if to < self.sim.now:
            raise ValueError(f"cannot advance to {to}; now is {self.sim.now}")
        self.kernel.advance_to(to)
        decisions = self._drain_decisions()
        self._record({"op": "advance", "to": to})
        return {
            "ok": True, "op": "advance",
            "now": self.sim.now,
            "decisions": decisions,
        }

    def drain(self) -> dict:
        """Run the remaining workload to completion; final metrics.

        Always flushes. Only the first drain is journaled: once the run
        is complete, draining again is a read.
        """
        self.kernel.drive(max_ticks=self.sim.config.horizon - self.sim.now)
        report = self.sim.metrics()
        decisions = self._drain_decisions()
        if not self.drained:
            self.drained = True
            self._record({"op": "drain"})
        self._flush()
        return {
            "ok": True, "op": "drain",
            "now": self.sim.now,
            "decisions": decisions,
            "metrics": metrics_payload(report),
        }

    def metrics(self) -> dict:
        return {
            "ok": True, "op": "metrics",
            "now": self.sim.now,
            "metrics": metrics_payload(self.sim.metrics()),
        }

    def stats(self) -> dict:
        kernel = self.kernel.stats
        return {
            "ok": True, "op": "stats",
            "now": self.sim.now,
            "n_submitted": self.n_submitted,
            "drained": self.drained,
            "latency": self.recorder.summary(),
            "kernel": {
                "decision_ticks": kernel.decision_ticks,
                "fast_forwarded": kernel.fast_forwarded,
                "spans": kernel.spans,
            },
        }

    # --- dispatch ---------------------------------------------------------------
    def handle(self, msg: dict) -> dict:
        """Dispatch one protocol message; errors become error responses."""
        op = msg.get("op")
        try:
            if op == "hello":
                return self.hello()
            if op == "submit":
                if "job" not in msg:
                    raise ValueError("submit requires a 'job' payload")
                return self.submit(msg["job"], msg.get("index"))
            if op == "advance":
                if "to" not in msg:
                    raise ValueError("advance requires 'to'")
                return self.advance(msg["to"])
            if op == "drain":
                return self.drain()
            if op == "metrics":
                return self.metrics()
            if op == "stats":
                return self.stats()
            if op == "checkpoint":
                return {"ok": True, "op": "checkpoint",
                        "path": self.checkpoint()}
            if op == "shutdown":
                if self.state_dir is not None:
                    self.checkpoint()
                return {"ok": True, "op": "shutdown"}
            raise ValueError(f"unknown op {op!r}")
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "op": op, "error": str(exc)}
