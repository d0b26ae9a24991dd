"""Online scheduling service: live submissions, decisions, restarts.

Everything below :mod:`repro.serve` turns the batch simulator into a
long-running service (``repro.cli serve``): jobs arrive over a
line-delimited-JSON socket, are injected into the
:class:`~repro.sim.kernel.EventKernel` as externally-arriving events,
and placement decisions stream back from the loaded policy. A base
snapshot plus a hash-chained journal of accepted frames makes ``kill -9``
lossless back to the last flush, and the replay client
(``repro.cli replay``) doubles as a deterministic load generator. The
load-bearing invariant: a served run fed by the replay client, at any
pace and across any number of kill/restart cycles, produces final
metrics byte-identical to the batch ``evaluate`` path on the same trace
(see ARCHITECTURE.md § Online serving).
"""

from repro.serve.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    write_checkpoint,
)
from repro.serve.latency import LatencyRecorder, TimedPolicy
from repro.serve.protocol import (
    PROTOCOL,
    decode_line,
    dumps_metrics,
    encode_message,
    metrics_payload,
)
from repro.serve.replay import ReplayClient, ReplayError, batch_reference, trace_payloads
from repro.serve.server import ServeServer, run_server
from repro.serve.service import SchedulerService

__all__ = [
    "PROTOCOL",
    "CHECKPOINT_FORMAT",
    "SchedulerService",
    "ServeServer",
    "run_server",
    "ReplayClient",
    "ReplayError",
    "batch_reference",
    "trace_payloads",
    "LatencyRecorder",
    "TimedPolicy",
    "encode_message",
    "decode_line",
    "metrics_payload",
    "dumps_metrics",
    "write_checkpoint",
    "load_checkpoint",
]
