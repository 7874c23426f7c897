"""The one HTTP core: an asyncio JSON server that is handed a route table.

The exploration service (:mod:`repro.service.async_server`) and the
shard server (:mod:`repro.cluster.shard`) are both *mounts* of
:class:`JsonHttpServer`: each hands it ``{(method, path): handler}``, a
body limit and a worker count, and holds nothing else.  Bytes become a
request in exactly one place, so framing rules, typed errors,
``Retry-After`` and the access log cannot drift between servers.

* **The loop owns the sockets; one rule says where a handler runs.**
  A keep-alive connection costs one task, not one OS thread.  A
  handler is a callable ``(payload, query, headers) -> (status, body)``
  (``payload``: the JSON body of a ``POST``, decoded on the loop,
  ``None`` for a ``GET``; ``query``: the raw query string; ``headers``:
  lower-cased).  A coroutine function runs on the loop and must never
  block: ``/health`` is one, so a liveness probe never queues behind
  pipeline or scan work, and the service's ``/explore`` answers a
  cache hit there.  Any other callable runs in the executor.  ``body``
  is a JSON-ready value, or JSON already encoded as ``bytes``.
* **A response is one write.**  Two writes put the body in a second TCP
  segment that waits out the peer's delayed ACK (~40 ms per keep-alive
  round trip on Linux).
* **Framing failures close the connection.**  A malformed request line
  or ``Content-Length``, any ``Transfer-Encoding``, an oversized head or
  body: each gets a typed 4xx with ``Connection: close``, and what
  follows on the socket is never parsed as a request.
"""

from __future__ import annotations

import asyncio
import http
import inspect
import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Mapping, Self, cast

from repro.service.protocol import ServiceError, error_to_dict
from repro.service.tenancy import retry_after_header

#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 32 * 1024

#: ``(status, body)``: a JSON-ready dict, or JSON already encoded.
Reply = tuple[int, dict[str, Any] | bytes]

#: ``(payload, query, headers) -> Reply``; a coroutine function runs on
#: the loop, any other callable in the executor.
Handler = Callable[[Any, str, dict[str, str]], Reply | Awaitable[Reply]]

#: The structured access-log sink: one JSON-ready dict per request.
AccessLogger = Callable[[dict[str, Any]], None]

_REASONS = {status.value: status.phrase for status in http.HTTPStatus}

_access_logger = logging.getLogger("repro.service.access")


def _log_to_stdlib(record: dict[str, Any]) -> None:
    _access_logger.info("%s", json.dumps(record, separators=(",", ":")))


class _HttpError(Exception):
    """A failure the core answers itself, with a ready error payload."""

    def __init__(
        self, status: int, message: str, *, code: str = "bad_request", close: bool = True
    ) -> None:
        super().__init__(message)
        self.status = status
        self.close = close
        self.payload = {
            "error": {"status": status, "code": code, "message": message, "type": "ProtocolError"}
        }


class JsonHttpServer:
    """An asyncio HTTP/1.1 server over one route table.

    ``workers`` sizes the executor the handlers run in.  ``access_log``
    receives one dict per request (``ts``, ``method``, ``path``,
    ``status``, ``elapsed_ms``, ``bytes``, plus whatever
    ``access_fields(headers)`` returns); without one, ``quiet=False``
    logs JSON lines on the ``repro.service.access`` stdlib logger and
    ``quiet=True`` logs nothing.
    """

    def __init__(
        self,
        routes: Mapping[tuple[str, str], Handler],
        host: str,
        port: int,
        *,
        max_body_bytes: int,
        workers: int,
        name: str,
        quiet: bool = True,
        access_log: AccessLogger | None = None,
        access_fields: Callable[[dict[str, str]], dict[str, Any]] | None = None,
    ) -> None:
        self._routes = dict(routes)
        self._methods = frozenset(method for method, _ in self._routes)
        self._host = host
        self._port = port
        self._max_body_bytes = max_body_bytes
        self._workers = workers
        self._name = name
        if access_log is None and not quiet:
            access_log = _log_to_stdlib
        self._access_log = access_log
        self._access_fields = access_fields
        self._socket: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` last bound (port 0 resolves here)."""
        if self._address is None:
            raise ServiceError("server is not running")
        return self._address

    @property
    def url(self) -> str:
        """Base URL clients should use."""
        host, port = self.address
        return f"http://{host}:{port}"

    def bind(self) -> Self:
        """Bind the listening socket, so ``url`` is known before serving."""
        if self._socket is None:
            family = socket.AF_INET6 if ":" in self._host else socket.AF_INET
            try:
                self._socket = socket.create_server((self._host, self._port), family=family)
            except OSError as error:
                raise ServiceError(
                    f"{self._name} failed to start on {self._host}:{self._port}: {error}"
                ) from error
            self._address = self._socket.getsockname()[:2]
        return self

    def start(self) -> Self:
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is None:
            self.bind()
            self._ready.clear()
            self._thread = threading.Thread(target=self.serve_forever, name=self._name, daemon=True)
            self._thread.start()
            self._ready.wait(timeout=10)
            if self._loop is None:
                self.close()
                raise ServiceError(f"{self._name} failed to start")
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or a signal)."""
        self.bind()
        try:
            asyncio.run(self._serve())
        finally:
            self._ready.set()

    def close(self) -> None:
        """Stop serving and drop every connection; idempotent."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> Self:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    async def _serve(self) -> None:
        assert self._socket is not None
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix=f"{self._name}-worker"
        )
        loop.set_default_executor(executor)
        server = await asyncio.start_server(
            self._handle_connection, sock=self._socket, limit=MAX_HEAD_BYTES
        )
        self._loop, self._stop = loop, asyncio.Event()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            self._loop = self._stop = None
            # Not ``wait_closed()``: idle keep-alive connections never
            # finish on their own; asyncio.run's teardown cancels them.
            server.close()
            executor.shutdown(wait=True, cancel_futures=True)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while await self._handle_one(reader, writer):
                pass
        except (asyncio.IncompleteReadError, OSError, asyncio.CancelledError):
            pass  # the client went away, or the server is shutting down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                # Teardown cancels handlers mid-handshake; absorbing it
                # ends the task without a logged traceback.
                pass

    async def _handle_one(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> bool:
        """Serve one request; returns False when the connection closes."""
        method, target, close = "?", "?", True
        headers: dict[str, str] = {}
        started = 0.0  # stays 0 when the head itself is refused
        try:
            head = await read_head(reader)
            if head is None:
                return False
            started = time.perf_counter()
            request_line, headers = head
            try:
                method, target, version = request_line.strip().split(" ", 2)
            except ValueError as exc:
                raise _HttpError(400, f"malformed request line {request_line!r}") from exc
            method = method.upper()
            body = await self._read_body(reader, headers)
            # The body is consumed: the next byte starts the next request.
            close = headers.get("connection", "").lower() == "close" or version == "HTTP/1.0"
            path, _, query = target.partition("?")
            route = (method, path)
            handler = self._routes.get(route)
            if handler is None:
                raise self._unrouted(method, path)
            # Decoded on the loop: decoding large bodies on the worker
            # threads raised stream_persist's peak RSS by 18 % (measured;
            # their garbage stays in each thread's own malloc arena).
            request = _decode(body) if method == "POST" else None
            if inspect.iscoroutinefunction(handler):
                answer = await cast(Awaitable[Reply], handler(request, query, headers))
            else:
                loop = asyncio.get_running_loop()
                answer = await loop.run_in_executor(None, handler, request, query, headers)
            status, payload = cast(Reply, answer)
        except _HttpError as error:
            status, payload = error.status, error.payload
            close = close or error.close
        except Exception as error:  # noqa: BLE001 - boundary fence
            payload = error_to_dict(error)
            status = payload["error"]["status"]
            if self._access_log is not None and not isinstance(error, ServiceError):
                _access_logger.error("unhandled error: %r", error)
        response = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        reply = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(response)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
        )
        if status in (429, 503) and isinstance(payload, dict):
            hint = payload.get("error", {}).get("detail", {}).get("retry_after")
            seconds = hint if isinstance(hint, (int, float)) else 0.0
            reply += f"Retry-After: {retry_after_header(seconds)}\r\n"
        writer.write(reply.encode("ascii") + b"\r\n" + response)
        await writer.drain()
        if self._access_log is not None:
            elapsed = time.perf_counter() - started if started else 0.0
            record = {
                "ts": time.time(),
                "method": method,
                "path": target,
                "status": status,
                "elapsed_ms": round(elapsed * 1000, 3),
                "bytes": len(response),
            }
            if self._access_fields is not None:
                record.update(self._access_fields(headers))
            self._access_log(record)
        return not close

    def _unrouted(self, method: str, path: str) -> _HttpError:
        if method not in self._methods:
            return _HttpError(400, f"unsupported method {method!r}", close=False)
        if method == "GET":
            return _HttpError(404, f"no route {path!r}", code="not_found", close=False)
        return _HttpError(400, f"no route {path!r}", close=False)

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict[str, str]) -> bytes:
        if "transfer-encoding" in headers:
            raise _HttpError(411, "Transfer-Encoding is not supported; send Content-Length")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise _HttpError(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        limit = self._max_body_bytes
        if length <= limit:
            return await reader.readexactly(length) if length else b""
        # Drain modest overshoots so the client can finish writing and
        # actually read the 413 (responding with the body unsent leaves
        # the client stuck on a broken pipe); anything larger is abuse
        # and the connection is simply dropped after the response.
        remaining = length if length <= 4 * limit else 0
        while remaining:
            chunk = await reader.read(min(remaining, 1 << 16))
            if not chunk:
                break
            remaining -= len(chunk)
        raise _HttpError(413, f"request body of {length} bytes exceeds the {limit}-byte limit")


async def read_head(reader: asyncio.StreamReader) -> tuple[str, dict[str, str]] | None:
    """A message head: its start line and its headers, names lower-cased.

    ``None`` at a clean EOF between messages.  Shared with the asyncio
    client, so requests and responses are split by the same code.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise
        return None
    except asyncio.LimitOverrunError as exc:
        raise _HttpError(431, "request head too large") from exc
    start_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return start_line, headers


def _decode(body: bytes) -> Any:
    """The JSON value of a ``POST`` body."""
    if not body:
        raise _HttpError(400, "request body required", close=False)
    try:
        return json.loads(body)
    except ValueError as exc:
        raise _HttpError(400, f"request body is not valid JSON: {exc}", close=False) from exc
