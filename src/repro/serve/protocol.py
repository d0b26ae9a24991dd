"""Wire protocol of the serving layer: NDJSON messages, canonical metrics.

One request or response per line, each a JSON object. Requests carry an
``op`` field; responses echo it plus ``ok`` (errors come back as
``{"ok": false, "error": ...}`` — the connection survives bad requests).

Ops
---
``hello``       server identity, current tick, ``n_submitted`` (the
                resume index after a restart), and whether the run was
                restored from a checkpoint.
``submit``      one job payload (canonical trace form, see
                :func:`repro.workload.traces.job_payload`) with its
                submission ``index``; the sim advances to the job's
                arrival tick and the job enters the run. Submissions
                must arrive in non-decreasing arrival order with
                consecutive indices — the index makes resubmission
                after a reconnect idempotent.
``advance``     advance the sim to tick ``to`` (an integer, not before
                the current tick) without submitting.
``drain``       run the remaining workload to completion and return the
                final metrics payload.
``metrics``     metrics at the current tick, no time advance.
``stats``       decision-latency summary + kernel/submission counters.
``checkpoint``  write a new base snapshot now (emptying the journal).
``shutdown``    checkpoint (when configured) and stop the server.

Every time-advancing response carries ``decisions``: the simulator
events (start/grow/shrink/finish/miss/drop/preempt/migrate/fail/repair)
logged since the previous response, with job ids translated to
submission indices so they stay meaningful across restarts.

Metrics canonicalization
------------------------
:func:`metrics_payload` / :func:`dumps_metrics` define the one
serialization both the served path and the batch reference use, so CI
can ``cmp`` the two files byte for byte. ``json`` emits floats via
``repr`` (shortest round-trip), making byte equality exactly float
equality.
"""

from __future__ import annotations

import dataclasses
import json

__all__ = [
    "PROTOCOL",
    "encode_message",
    "decode_line",
    "metrics_payload",
    "dumps_metrics",
]

PROTOCOL = "repro-serve/1"


def encode_message(msg: dict) -> bytes:
    """One NDJSON frame (compact separators, trailing newline)."""
    return (json.dumps(msg, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line) -> dict:
    """Parse one NDJSON frame; raises ``ValueError`` on garbage."""
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8")
    msg = json.loads(line)
    if not isinstance(msg, dict):
        raise ValueError(f"message must be a JSON object, got {type(msg).__name__}")
    return msg


def metrics_payload(report) -> dict:
    """A :class:`~repro.sim.metrics.MetricsReport` as a plain JSON dict."""
    return dataclasses.asdict(report)


def dumps_metrics(payload) -> str:
    """Canonical metrics serialization shared by serve and batch paths."""
    if dataclasses.is_dataclass(payload):
        payload = metrics_payload(payload)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
