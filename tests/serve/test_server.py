"""Socket server + replay client end to end, including kill -9 restart.

The fast tests run the asyncio server in a background thread and drive
it with the real :class:`ReplayClient` over a real socket. The slow
test is the full acceptance scenario as CI runs it: two ``repro.cli
serve`` subprocesses, the first killed with SIGKILL mid-stream, the
replay client resuming against the restarted one, and the final metrics
compared byte-for-byte against the offline batch reference.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.baselines import baseline_roster
from repro.harness.library import get_scenario
from repro.serve import (
    ReplayClient,
    SchedulerService,
    ServeServer,
    batch_reference,
    dumps_metrics,
    trace_payloads,
)
from repro.serve.server import MAX_FRAME_BYTES

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def fresh_policy(name):
    return dict(baseline_roster())[name]


@pytest.fixture(scope="module")
def scenario():
    return get_scenario("quick")


@pytest.fixture(scope="module")
def payloads(scenario):
    return trace_payloads(scenario.trace(1000))


class ThreadedServer:
    """Run a ServeServer on its own event loop in a daemon thread."""

    def __init__(self, service):
        self.server = ServeServer(service, host="127.0.0.1", port=0)
        self.endpoint = {}
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main():
            self.endpoint.update(await self.server.start())
            self._ready.set()
            await self.server.serve_until_shutdown()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server never came up"
        return self

    def __exit__(self, *exc_info):
        self._thread.join(timeout=10)


class TestSocketEndToEnd:
    def test_replay_over_socket_matches_batch(self, scenario, payloads):
        service = SchedulerService(scenario.platforms, fresh_policy("fifo"),
                                   max_ticks=scenario.max_ticks,
                                   policy_desc="fifo")
        with ThreadedServer(service) as ts:
            client = ReplayClient(host=ts.endpoint["host"],
                                  port=ts.endpoint["port"])
            with client:
                metrics = client.pump(payloads, shutdown=True)
        assert dumps_metrics(metrics) == batch_reference(
            scenario.platforms, payloads, fresh_policy("fifo"),
            max_ticks=scenario.max_ticks)
        assert client.submitted == len(payloads)

    def test_bad_frame_keeps_connection_alive(self, scenario):
        import socket as socketlib

        service = SchedulerService(scenario.platforms, fresh_policy("fifo"),
                                   max_ticks=scenario.max_ticks)
        with ThreadedServer(service) as ts:
            sock = socketlib.create_connection(
                (ts.endpoint["host"], ts.endpoint["port"]), timeout=10)
            with sock:
                fh = sock.makefile("rwb")
                fh.write(b"this is not json\n")
                fh.flush()
                error = json.loads(fh.readline())
                assert not error["ok"] and "bad frame" in error["error"]
                fh.write(b'{"op": "hello"}\n')
                fh.flush()
                hello = json.loads(fh.readline())
                assert hello["ok"] and hello["op"] == "hello"
                fh.write(b'{"op": "shutdown"}\n')
                fh.flush()
                fh.readline()

    def test_overflowing_parallelism_gets_error_reply(self, scenario,
                                                       payloads):
        service = SchedulerService(scenario.platforms, fresh_policy("edf"),
                                   max_ticks=scenario.max_ticks)
        bad_job = {**payloads[0], "max_parallelism": 10**30}
        with ThreadedServer(service) as ts:
            sock = socket.create_connection(
                (ts.endpoint["host"], ts.endpoint["port"]), timeout=10)
            with sock:
                fh = sock.makefile("rwb")

                def exchange(msg):
                    fh.write(json.dumps(msg).encode() + b"\n")
                    fh.flush()
                    return json.loads(fh.readline())

                error = exchange({"op": "submit", "index": 0, "job": bad_job})
                assert not error["ok"]
                assert "'max_parallelism'" in error["error"]
                assert exchange({"op": "submit", "index": 0,
                                 "job": payloads[0]})["ok"]
                assert exchange({"op": "shutdown"})["ok"]


class TestFramingErrors:
    """Frames the transport cannot read get an error reply before they
    reach the service, their connection closes, and the server keeps
    serving new connections."""

    @pytest.fixture
    def served(self, scenario):
        service = SchedulerService(scenario.platforms, fresh_policy("fifo"),
                                   max_ticks=scenario.max_ticks)
        handled = []
        handle = service.handle

        def recording_handle(msg):
            handled.append(msg.get("op"))
            return handle(msg)

        service.handle = recording_handle
        with ThreadedServer(service) as ts:
            yield ts, handled
            assert ndjson_exchange(ts, b'{"op": "shutdown"}\n')["ok"]

    def test_oversized_ndjson_line(self, served):
        ts, handled = served
        frame = (b'{"op": "hello", "pad": "' + b"x" * 70_000 + b'"}\n')
        assert len(frame) > MAX_FRAME_BYTES
        sock = socket.create_connection(
            (ts.endpoint["host"], ts.endpoint["port"]), timeout=10)
        with sock:
            fh = sock.makefile("rwb")
            fh.write(frame)
            fh.flush()
            error = json.loads(fh.readline())
            assert not error["ok"] and "bad frame" in error["error"]
            try:
                closed = fh.readline() == b""
            except ConnectionResetError:     # the frame's tail was unread
                closed = True
            assert closed
        assert handled == []
        assert ndjson_exchange(ts, b'{"op": "hello"}\n')["ok"]


def ndjson_exchange(ts, frame):
    """One request/response on a fresh NDJSON connection."""
    sock = socket.create_connection(
        (ts.endpoint["host"], ts.endpoint["port"]), timeout=10)
    with sock:
        fh = sock.makefile("rwb")
        fh.write(frame)
        fh.flush()
        return json.loads(fh.readline())


@pytest.mark.slow
class TestKillRestartSubprocess:
    def serve_cmd(self, state_dir):
        return [sys.executable, "-m", "repro.cli", "serve",
                "--scenario", "quick", "--policy", "greedy-elastic",
                "--state-dir", state_dir, "--checkpoint-every", "8"]

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def wait_for_endpoint(self, state_dir, proc, timeout=30):
        deadline = time.monotonic() + timeout
        path = os.path.join(state_dir, "ENDPOINT.json")
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(f"server died early: exit {proc.returncode}")
            try:
                with open(path) as fh:
                    endpoint = json.load(fh)
                if endpoint.get("pid") == proc.pid:
                    return endpoint
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        pytest.fail("server never wrote its endpoint")

    def test_sigkill_mid_stream_then_restart_is_byte_identical(
            self, scenario, payloads, tmp_path):
        state = str(tmp_path / "state")
        first = subprocess.Popen(self.serve_cmd(state), env=self.env(),
                                 cwd=str(tmp_path))
        try:
            self.wait_for_endpoint(state, first)
            client = ReplayClient(state_dir=state)
            with client:
                stopped = client.pump(payloads, stop_after=20)
            assert stopped is None and client.submitted == 20
        finally:
            first.kill()            # SIGKILL: no atexit, no cleanup
            first.wait(timeout=30)
        assert first.returncode == -signal.SIGKILL

        second = subprocess.Popen(self.serve_cmd(state), env=self.env(),
                                  cwd=str(tmp_path))
        try:
            self.wait_for_endpoint(state, second)
            client = ReplayClient(state_dir=state)
            with client:
                metrics = client.pump(payloads, shutdown=True)
            second.wait(timeout=30)
        finally:
            if second.poll() is None:
                second.kill()
                second.wait()
        assert dumps_metrics(metrics) == batch_reference(
            scenario.platforms, payloads, fresh_policy("greedy-elastic"),
            max_ticks=scenario.max_ticks)
