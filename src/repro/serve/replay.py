"""Deterministic load generator: replay a scenario trace into a server.

The replay client is the other half of the serving invariant. It takes
the exact payload list a batch run would hand to the ``Simulation``
constructor and pumps it over the NDJSON socket in arrival order, with
optional wall-clock pacing (``tick_seconds`` per sim tick). Because
each submission carries its index, the client can crash, the server can
crash, or both — on reconnect the client asks ``hello`` for the
server's ``n_submitted`` and resumes from there, resubmitting anything
the server lost since its last checkpoint. The pump is
therefore idempotent end to end, which is what makes the
kill-and-restart CI check meaningful rather than lucky.

``batch_reference`` runs the same payloads through the ordinary batch
path and serializes the report with the same canonical writer, so the
two outputs can be compared byte for byte.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Optional, Sequence

from repro.harness.library import trace_payloads
from repro.serve.checkpoint import ENDPOINT_NAME, load_endpoint
from repro.serve.protocol import decode_line, dumps_metrics, encode_message
from repro.util.errors import InputError

__all__ = ["ReplayClient", "ReplayError", "batch_reference", "trace_payloads"]


class ReplayError(InputError):
    """The server rejected a request or never became reachable; the
    message starts with the endpoint."""


class ReplayClient:
    """Pump job payloads into a running scheduler service.

    Endpoint resolution: explicit ``host``/``port`` win; otherwise the
    client polls ``ENDPOINT.json`` in ``state_dir`` until the server
    (possibly a restarted one with a fresh ephemeral port) advertises
    itself, up to ``connect_timeout`` seconds.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        tick_seconds: float = 0.0,
        connect_timeout: float = 15.0,
        retry_interval: float = 0.2,
    ) -> None:
        if state_dir is None and (host is None or port is None):
            raise ValueError("need either state_dir or explicit host+port")
        self.state_dir = state_dir
        self.host = host
        self.port = port
        # The endpoint as error messages name it.
        self._where = (
            f"{host}:{port}" if host is not None and port is not None
            else os.path.join(state_dir, ENDPOINT_NAME))
        self.tick_seconds = float(tick_seconds)
        self.connect_timeout = float(connect_timeout)
        self.retry_interval = float(retry_interval)
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self.submitted = 0
        self.decisions = 0

    # --- transport --------------------------------------------------------------
    def _resolve_endpoint(self):
        if self.host is not None and self.port is not None:
            return self.host, self.port
        endpoint = load_endpoint(self.state_dir)
        if endpoint is None:
            return None
        return endpoint["host"], endpoint["port"]

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        deadline = time.monotonic() + self.connect_timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            target = self._resolve_endpoint()
            if target is not None:
                try:
                    sock = socket.create_connection(target, timeout=self.connect_timeout)
                    sock.settimeout(self.connect_timeout)
                    self._sock = sock
                    self._buffer = b""
                    return sock
                except OSError as exc:
                    last_error = exc
            time.sleep(self.retry_interval)
        raise ReplayError(
            f"{self._where}: could not reach a server within "
            f"{self.connect_timeout:.1f}s"
            + (f" (last error: {last_error})" if last_error else ""))

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._buffer = b""

    def _request(self, msg: dict) -> dict:
        """One request/response round trip; raises OSError on dead links."""
        sock = self._connect()
        sock.sendall(encode_message(msg))
        while b"\n" not in self._buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return decode_line(line)

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ReplayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- pump -------------------------------------------------------------------
    def _pace(self, prev_arrival: Optional[int], arrival: int) -> None:
        if self.tick_seconds <= 0.0 or prev_arrival is None:
            return
        delay = (arrival - prev_arrival) * self.tick_seconds
        if delay > 0:
            time.sleep(delay)

    def pump(
        self,
        payloads: Sequence[dict],
        *,
        stop_after: Optional[int] = None,
        shutdown: bool = False,
        log=None,
    ) -> Optional[dict]:
        """Submit ``payloads`` in order; returns the final metrics payload.

        ``stop_after`` ends the pump once the server has accepted that
        many submissions in total, without draining — the hook the CI
        kill-and-restart check uses to stop mid-stream at a
        deterministic point. Returns ``None`` when stopping early,
        otherwise the ``drain`` metrics payload.
        """
        say = log if log is not None else (lambda _msg: None)
        prev_arrival: Optional[int] = None
        while True:
            try:
                hello = self._request({"op": "hello"})
                if not hello.get("ok"):
                    raise ReplayError(f"{self._where}: hello failed: "
                                      f"{hello.get('error')}")
                index = int(hello["n_submitted"])
                if hello.get("resumed"):
                    say(f"resuming at submission index {index} "
                        f"(server restored a checkpoint, now={hello['now']})")
                if hello.get("drained"):
                    say("server already drained; fetching final metrics")
                    break
                while index < len(payloads):
                    if stop_after is not None and index >= stop_after:
                        say(f"stopping after {index} submissions (--stop-after)")
                        return None
                    payload = payloads[index]
                    self._pace(prev_arrival, payload["arrival_time"])
                    response = self._request(
                        {"op": "submit", "index": index, "job": payload})
                    if not response.get("ok"):
                        error = response.get("error", "")
                        if "submission index" in error:
                            # The previous link died between the server
                            # applying a submit and us reading the ack;
                            # resync from hello.
                            say(f"index out of sync ({error}); resyncing")
                            break
                        raise ReplayError(f"{self._where}: submit #{index} "
                                          f"rejected: {error}")
                    prev_arrival = payload["arrival_time"]
                    self.decisions += len(response.get("decisions", ()))
                    index += 1
                    self.submitted = max(self.submitted, index)
                else:
                    break  # all payloads submitted
                continue  # resync path: re-run hello
            except (ConnectionError, OSError, TimeoutError) as exc:
                say(f"connection lost ({exc}); reconnecting")
                self._disconnect()
                continue

        metrics = self._drain(log=say)
        if shutdown:
            self._shutdown(log=say)
        return metrics

    def _drain(self, log) -> dict:
        while True:
            try:
                response = self._request({"op": "drain"})
                if not response.get("ok"):
                    raise ReplayError(f"{self._where}: drain failed: "
                                      f"{response.get('error')}")
                self.decisions += len(response.get("decisions", ()))
                return response["metrics"]
            except (ConnectionError, OSError, TimeoutError) as exc:
                log(f"connection lost during drain ({exc}); reconnecting")
                self._disconnect()

    def _shutdown(self, log) -> None:
        try:
            self._request({"op": "shutdown"})
        except (ConnectionError, OSError, TimeoutError) as exc:
            log(f"server went away during shutdown ({exc})")
        finally:
            self._disconnect()


def batch_reference(platforms, payloads: Sequence[dict], policy,
                    max_ticks: Optional[int] = None,
                    drop_on_miss: bool = False) -> str:
    """The batch half of the invariant: same payloads, canonical bytes.

    Runs the ordinary offline path on the identical payload list the
    replay client pumps, and returns :func:`dumps_metrics` output — the
    string a served run's ``drain`` metrics serialize to when the two
    paths agree.
    """
    from repro.sim.simulation import Simulation, SimulationConfig
    from repro.workload.traces import jobs_from_payload

    sim = Simulation(
        list(platforms), jobs_from_payload(list(payloads)),
        SimulationConfig(drop_on_miss=drop_on_miss, horizon=max_ticks),
    )
    report = sim.run_policy(policy, max_ticks=max_ticks)
    return dumps_metrics(report)
