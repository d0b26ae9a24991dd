"""Asyncio front-end: NDJSON socket server plus a thin HTTP shim.

The transport is deliberately dumb: every frame is handed to
:meth:`SchedulerService.handle` under one lock, so concurrent clients
serialize and the simulation only ever advances single-file (the
determinism contract needs a single writer; the lock makes the whole
service one). The HTTP shim speaks just enough HTTP/1.1 for ``curl``
and scripts — ``POST /`` with a JSON request body, or ``GET /<op>`` for
argument-free ops — and reuses the same dispatch.

A frame the transport cannot read — an NDJSON line or HTTP header line
over :data:`MAX_FRAME_BYTES`, an HTTP ``Content-Length`` that is not a
byte count, or a declared body over the limit — is answered with an
``{"ok": false}`` error (HTTP ``400``, or ``413`` for the body) before
it reaches the service, and its connection is closed; other connections
are unaffected.

On startup the server writes ``ENDPOINT.json`` into the state dir with
the actually-bound ports (``--port 0`` picks ephemeral ones), which is
how the replay client finds a restarted server without re-plumbing
ports through scripts.
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Optional

from repro.serve.checkpoint import write_endpoint
from repro.serve.protocol import encode_message
from repro.serve.service import SchedulerService

__all__ = ["MAX_FRAME_BYTES", "ServeServer", "run_server"]

#: Longest NDJSON line, HTTP header line and HTTP body accepted, in
#: bytes: asyncio's default ``StreamReader`` limit, passed to both
#: listeners explicitly.
MAX_FRAME_BYTES = 2 ** 16


class _FrameError(Exception):
    """An HTTP request the shim cannot read; carries its status line."""

    def __init__(self, status: str, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeServer:
    """Bind, serve until a ``shutdown`` op arrives, clean up."""

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.http_port = http_port
        self._lock = asyncio.Lock()
        self._stop = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None

    # --- dispatch --------------------------------------------------------------
    async def _handle_message(self, msg: dict) -> dict:
        async with self._lock:
            response = self.service.handle(msg)
            if response.get("ok") and response.get("op") == "shutdown":
                self._stop.set()
            return response

    # --- NDJSON connections ----------------------------------------------------
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
                    msg = json.loads(line)
                    if not isinstance(msg, dict):
                        raise ValueError("message must be a JSON object")
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

    # --- HTTP shim --------------------------------------------------------------
    @staticmethod
    async def _read_http(reader: asyncio.StreamReader):
        """``(method, path, body)`` of one request, or ``None`` for an
        empty or malformed request line (answered with no reply).

        Raises :class:`_FrameError` for a frame that cannot be read: a
        line over the limit, a ``Content-Length`` that is not a byte
        count, or a declared body over the limit (left unread).
        """
        try:
            request_line = await reader.readline()
            parts = request_line.split()
            if len(parts) < 2:
                return None
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
        except ValueError:
            raise _FrameError("400 Bad Request",
                              f"line longer than {MAX_FRAME_BYTES} bytes")
        field = headers.get("content-length", "") or "0"
        if not (field.isascii() and field.isdigit()):
            raise _FrameError("400 Bad Request",
                              f"bad content-length {field!r}")
        length = int(field)
        if length > MAX_FRAME_BYTES:
            raise _FrameError("413 Payload Too Large",
                              f"body over {MAX_FRAME_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return parts[0].decode("latin-1"), parts[1].decode("latin-1"), body

    async def _http_dispatch(self, method: str, path: str, body: bytes):
        """``(status line, response)`` for one readable request."""
        if method == "GET":
            msg = {"op": path.strip("/") or "hello"}
        elif method == "POST":
            try:
                msg = json.loads(body) if body else {}
                if not isinstance(msg, dict):
                    raise ValueError("body must be a JSON object")
            except ValueError as exc:
                return "400 Bad Request", {"ok": False,
                                           "error": f"bad body: {exc}"}
        else:
            return "405 Method Not Allowed", {
                "ok": False, "error": f"unsupported method {method}"}
        response = await self._handle_message(msg)
        return ("200 OK" if response.get("ok") else "400 Bad Request"), response

    async def _on_http(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await self._read_http(reader)
            except _FrameError as exc:
                status = exc.status
                response = {"ok": False, "error": f"bad request: {exc}"}
            else:
                if request is None:
                    return
                status, response = await self._http_dispatch(*request)
            payload = (json.dumps(response) + "\n").encode("utf-8")
            writer.write(
                (f"HTTP/1.1 {status}\r\n"
                 f"Content-Type: application/json\r\n"
                 f"Content-Length: {len(payload)}\r\n"
                 f"Connection: close\r\n\r\n").encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # --- lifecycle ---------------------------------------------------------------
    async def start(self) -> dict:
        """Bind both listeners; returns the endpoint description."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_FRAME_BYTES)
        bound_port = self._server.sockets[0].getsockname()[1]
        endpoint = {"host": self.host, "port": bound_port, "pid": os.getpid()}
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._on_http, self.host, self.http_port,
                limit=MAX_FRAME_BYTES)
            endpoint["http_port"] = self._http_server.sockets[0].getsockname()[1]
        if self.service.state_dir is not None:
            write_endpoint(self.service.state_dir, endpoint)
        return endpoint

    async def serve_until_shutdown(self) -> None:
        await self._stop.wait()
        await self.close()

    async def close(self) -> None:
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = self._http_server = None


async def _serve(service: SchedulerService, host: str, port: int,
                 http_port: Optional[int], ready_line: bool) -> None:
    server = ServeServer(service, host, port, http_port)
    endpoint = await server.start()
    if ready_line:
        extra = (f" http={endpoint['http_port']}"
                 if "http_port" in endpoint else "")
        print(f"serving on {endpoint['host']}:{endpoint['port']}{extra} "
              f"(policy: {service.policy_desc}"
              f"{', resumed from checkpoint' if service.resumed else ''})",
              flush=True)
    await server.serve_until_shutdown()


def run_server(service: SchedulerService, host: str = "127.0.0.1",
               port: int = 0, http_port: Optional[int] = None,
               ready_line: bool = True) -> int:
    """Blocking entry point used by ``repro.cli serve``."""
    try:
        asyncio.run(_serve(service, host, port, http_port, ready_line))
    except KeyboardInterrupt:
        # Ctrl-C is an orderly stop: the base and journal already
        # cover everything up to the last flush.
        pass
    return 0
