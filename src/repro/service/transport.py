"""Persistent JSON-over-HTTP transport for service and cluster clients.

The PR-2 :class:`~repro.service.client.ServiceClient` opened a fresh
TCP connection per request (``urllib.request.urlopen``).  That was fine
when one human drove one query at a time; the cluster coordinator makes
N shard calls *per query*, which puts connection setup on the hot path.
This module gives every client the same keep-alive transport:

* one :class:`http.client.HTTPConnection` **per thread** (a
  ``threading.local``), so the transport object stays safe to share
  across threads — the thread-safety contract ``ServiceClient`` has
  carried since PR 2 — while each thread reuses its socket across
  requests.  Every live connection is *also* tracked in a small
  lock-guarded registry with an epoch counter, so :meth:`HttpTransport.
  close` can drop **every** thread's socket (not just the caller's) and
  surviving threads reconnect lazily on their next request;
* reconnect-on-drop: a keep-alive socket the server closed while idle
  surfaces as ``RemoteDisconnected`` / ``BadStatusLine`` / a reset on
  the *next* request.  When that happens on a **reused** connection the
  transport reconnects and retries once; a failure on a freshly opened
  connection is never retried (the server is actually down, and blind
  replays of non-idempotent requests like ``/append`` would be unsafe
  — on a stale socket the request provably never reached a handler);
* the same typed-error mapping the per-request transport had: HTTP
  error statuses resurrect the server's typed
  :class:`~repro.service.protocol.ServiceError`, unreachable hosts
  raise :class:`~repro.service.protocol.RemoteServiceError`, bodies
  that are not JSON raise :class:`~repro.service.protocol.ProtocolError`.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse

from repro.service.protocol import (
    ProtocolError,
    RemoteServiceError,
    error_from_payload,
)

#: Connection-level failures that mean "this socket is dead", as opposed
#: to an HTTP response carrying an error status.
_DROP_ERRORS = (
    http.client.HTTPException,
    ConnectionError,
    socket.timeout,
    OSError,
)

#: The subset of :data:`_DROP_ERRORS` that specifically signals a stale
#: keep-alive socket the server reaped while idle — the only failures
#: where the request provably never reached a handler, and therefore the
#: only ones a reused connection may retry.  Timeouts are excluded on
#: purpose: a timed-out request *may* have reached the server, so a
#: blind replay of a non-idempotent call would be unsafe (and would
#: double the wait on a genuinely slow shard).
_STALE_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
)


def parse_base_url(base_url: str) -> tuple[str, int]:
    """``(host, port)`` of an ``http://host[:port]`` base URL."""
    parsed = urllib.parse.urlsplit(base_url.rstrip("/"))
    if parsed.scheme not in ("http", ""):
        raise ProtocolError(
            f"unsupported URL scheme {parsed.scheme!r} in {base_url!r}"
        )
    return parsed.hostname or parsed.path or "localhost", parsed.port or 80


def decode_response(status: int, raw: bytes, retry_after: str | None) -> dict:
    """The JSON object of a response, or its typed error, raised.

    The response half both clients share: error statuses resurrect the
    server's typed :class:`~repro.service.protocol.ServiceError`, and a
    ``Retry-After`` header surfaces as ``detail["retry_after_header"]``
    unless the payload already carries one.
    """
    try:
        parsed = json.loads(raw) if raw else {}
    except json.JSONDecodeError as exc:
        if status < 400:
            raise ProtocolError(f"server returned invalid JSON: {exc}") from exc
        # An error status with an unparsable body still maps to a typed
        # failure.
        parsed = {}
    if status >= 400:
        if not isinstance(parsed, dict) or "error" not in parsed:
            parsed = {"error": {"status": status, "code": "internal",
                                "message": f"HTTP {status}"}}
        error = error_from_payload(parsed, status)
        detail = getattr(error, "detail", None)
        if (
            retry_after is not None
            and isinstance(detail, dict)
            and "retry_after_header" not in detail
        ):
            detail["retry_after_header"] = retry_after
        raise error
    if not isinstance(parsed, dict):
        raise ProtocolError(
            f"expected a JSON object body, got {type(parsed).__name__}"
        )
    return parsed


class HttpTransport:
    """Keep-alive JSON transport to one ``http://host:port`` base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self._host, self._port = parse_base_url(base_url)
        self._base_url = f"http://{self._host}:{self._port}"
        self._timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Bumped by :meth:`close`; a thread-local connection from an
        #: older epoch is stale and must not be reused.
        self._epoch = 0  # guarded-by: _lock
        self._live: list[http.client.HTTPConnection] = []  # guarded-by: _lock

    @property
    def base_url(self) -> str:
        """The normalized ``http://host:port`` this transport talks to."""
        return self._base_url

    @property
    def timeout(self) -> float:
        """Per-request socket timeout in seconds."""
        return self._timeout

    # ------------------------------------------------------------------ #
    # Connection lifecycle (per thread)
    # ------------------------------------------------------------------ #

    def _connection(self) -> "tuple[http.client.HTTPConnection, bool]":
        """This thread's connection and whether it is being reused."""
        connection = getattr(self._local, "connection", None)
        with self._lock:
            epoch = self._epoch
        if connection is not None:
            if getattr(self._local, "epoch", -1) == epoch:
                return connection, True
            # close() ran since this thread last connected; its socket
            # was already closed by close(), so just forget it.
            self._local.connection = None
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        with self._lock:
            self._live.append(connection)
            self._local.epoch = self._epoch
        self._local.connection = connection
        return connection, False

    def _drop(self) -> None:
        """Discard this thread's connection (it will reconnect lazily)."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is None:
            return
        with self._lock:
            try:
                self._live.remove(connection)
            except ValueError:
                pass  # close() already swept it out of the registry
        try:
            connection.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass

    def close(self) -> None:
        """Close **every** thread's connection.

        Earlier builds closed only the calling thread's socket and let
        other threads' keep-alive connections leak until garbage
        collection — a real file-descriptor leak for long-lived shard
        transports.  Now the registry is swept wholesale: the epoch
        bump makes surviving threads treat their thread-local
        connection as stale and reconnect lazily on their next request,
        so ``close()`` is safe to call while other threads are between
        requests.
        """
        with self._lock:
            self._epoch += 1
            doomed, self._live = self._live, []
        for connection in doomed:
            try:
                connection.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        headers: dict | None = None,
    ) -> dict:
        """One JSON request/response round trip; raises typed errors.

        ``headers`` adds/overrides request headers (the clients use it
        for ``X-Api-Key``).  Error responses carrying a ``Retry-After``
        header surface it as ``error.detail["retry_after_header"]``.
        """
        body = None
        send_headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        if headers:
            send_headers.update(headers)
        connection, reused = self._connection()
        try:
            status, raw, retry_after = self._round_trip(
                connection, method, path, body, send_headers
            )
        except _DROP_ERRORS as exc:
            self._drop()
            if not reused or not isinstance(exc, _STALE_ERRORS):
                raise RemoteServiceError(
                    f"cannot reach service at {self._base_url}: {exc}"
                ) from exc
            # A reused keep-alive socket died — almost always the
            # server reaping an idle connection.  The request never
            # reached a handler, so one retry on a fresh socket is safe
            # for any method.
            connection, _ = self._connection()
            try:
                status, raw, retry_after = self._round_trip(
                    connection, method, path, body, send_headers
                )
            except _DROP_ERRORS as retry_exc:
                self._drop()
                raise RemoteServiceError(
                    f"cannot reach service at {self._base_url}: {retry_exc}"
                ) from retry_exc
        return decode_response(status, raw, retry_after)

    @staticmethod
    def _round_trip(
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict,
    ) -> tuple[int, bytes, str | None]:
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()  # drain fully so the socket can be reused
        return response.status, raw, response.getheader("Retry-After")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<HttpTransport {self._base_url}>"
