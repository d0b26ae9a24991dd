"""Asyncio front-end: the NDJSON socket server.

The transport is deliberately dumb: every frame is handed to
:meth:`SchedulerService.handle` under one lock, so concurrent clients
serialize and the simulation only ever advances single-file (the
determinism contract needs a single writer; the lock makes the whole
service one).

A line the transport cannot read — over :data:`MAX_FRAME_BYTES`, or
not a JSON object — is answered with an ``{"ok": false}`` error before
it reaches the service. An over-long line also closes its connection;
other connections are unaffected.

On startup the server writes ``ENDPOINT.json`` into the state dir with
the actually-bound port (``--port 0`` picks an ephemeral one), which is
how the replay client finds a restarted server without re-plumbing
ports through scripts.
"""

from __future__ import annotations

import asyncio
import os
from typing import Optional

from repro.serve.checkpoint import write_endpoint
from repro.serve.protocol import decode_line, encode_message
from repro.serve.service import SchedulerService

__all__ = ["MAX_FRAME_BYTES", "ServeServer", "run_server"]

#: Longest NDJSON line accepted, in bytes: asyncio's default
#: ``StreamReader`` limit, passed to the listener explicitly.
MAX_FRAME_BYTES = 2 ** 16


class ServeServer:
    """Bind, serve until a ``shutdown`` op arrives, clean up."""

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._lock = asyncio.Lock()
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None

    async def _handle_message(self, msg: dict) -> dict:
        async with self._lock:
            response = self.service.handle(msg)
            if response.get("ok") and response.get("op") == "shutdown":
                self._stop.set()
            return response

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the limit: asyncio has dropped part of the
                    # frame and may leave its tail unread, so the stream
                    # cannot be resynchronized — reply and close.
                    writer.write(encode_message({
                        "ok": False, "error": "bad frame: longer than "
                        f"{MAX_FRAME_BYTES} bytes"}))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_line(line)
                except ValueError as exc:
                    response = {"ok": False, "error": f"bad frame: {exc}"}
                else:
                    response = await self._handle_message(msg)
                writer.write(encode_message(response))
                await writer.drain()
                if self._stop.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def start(self) -> dict:
        """Bind the listener; returns the endpoint description."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_FRAME_BYTES)
        bound_port = self._server.sockets[0].getsockname()[1]
        endpoint = {"host": self.host, "port": bound_port, "pid": os.getpid()}
        if self.service.state_dir is not None:
            write_endpoint(self.service.state_dir, endpoint)
        return endpoint

    async def serve_until_shutdown(self) -> None:
        await self._stop.wait()
        await self.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


async def _serve(service: SchedulerService, host: str, port: int) -> None:
    server = ServeServer(service, host, port)
    endpoint = await server.start()
    print(f"serving on {endpoint['host']}:{endpoint['port']} "
          f"(policy: {service.policy_desc}"
          f"{', resumed from checkpoint' if service.resumed else ''})",
          flush=True)
    await server.serve_until_shutdown()


def run_server(service: SchedulerService, host: str = "127.0.0.1",
               port: int = 0) -> int:
    """Blocking entry point used by ``repro.cli serve``."""
    try:
        asyncio.run(_serve(service, host, port))
    except KeyboardInterrupt:
        # Ctrl-C is an orderly stop: the base and journal already
        # cover everything up to the last flush.
        pass
    return 0
