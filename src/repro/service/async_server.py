"""The exploration service's HTTP mount, and the asyncio client.

:class:`AsyncServiceServer` is a route table over the one wire core
(:class:`~repro.service.httpd.JsonHttpServer`): parsing, typed errors,
``Retry-After`` and the access log live there, policy (tenants, rate
limits, admission, deadlines) lives in :class:`ExplorationService`, and
this module only says which service call answers which route.

====== =========== ====================================================
Method Path        Meaning
====== =========== ====================================================
GET    /health     liveness + protocol version
GET    /tables     registered tables with provenance
POST   /tables     register a generated table (a ``build_table`` spec)
POST   /explore    run one exploration (an ``ExploreRequest`` payload)
POST   /append     append rows to a table (an ``AppendRequest`` payload)
GET    /metrics    counters, caches, per-stage latency percentiles
GET    /history    recent request journal (``?limit=&tenant=&status=``)
====== =========== ====================================================

Per-tenant API keys ride the ``X-Api-Key`` header, and the access-log
record of every request carries the tenant it resolved to.

:class:`AsyncServiceClient` is the coroutine client — a single-socket
keep-alive JSON client built on asyncio streams, cheap enough to run
hundreds of instances on one loop (the E23 saturation benchmark drives
64–256 of them from one process).
"""

from __future__ import annotations

import asyncio
import functools
import json
import urllib.parse

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.service.cache import CachedAnswer
from repro.service.client import retry_delay
from repro.service.httpd import (
    AccessLogger,
    Handler,
    JsonHttpServer,
    read_head,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AdmissionError,
    AppendRequest,
    AppendResponse,
    ExploreRequest,
    ExploreResponse,
    ProtocolError,
    RemoteServiceError,
    ServiceError,
)
from repro.service.requests import (
    build_append_request,
    build_explore_request,
    build_register_payload,
    history_path,
)
from repro.service.service import ExplorationService
from repro.service.transport import decode_response, parse_base_url


def _service_routes(
    service: ExplorationService,
) -> dict[tuple[str, str], Handler]:
    """The seven service routes as ``(payload, query, headers)`` handlers;
    ``/health`` and ``/explore`` are coroutines, run on the event loop."""

    async def health(payload, query, headers):
        return 200, {"status": "ok", "protocol": PROTOCOL_VERSION}

    def tables(payload, query, headers):
        return 200, {"tables": service.describe_tables()}

    def metrics(payload, query, headers):
        return 200, service.metrics()

    def history(payload, query, headers):
        params = urllib.parse.parse_qs(query)
        try:
            limit = int(params.get("limit", ["50"])[0])
        except ValueError as exc:
            raise ProtocolError("'limit' must be an integer") from exc
        entries = service.history_entries(
            limit,
            tenant=params.get("tenant", [None])[0],
            status=params.get("status", [None])[0],
        )
        return 200, {"history": entries}

    async def explore(payload, query, headers):
        request = ExploreRequest.from_dict(payload)
        begin = functools.partial(
            service.begin, **vars(request), api_key=headers.get("x-api-key")
        )
        served = service.catalog.lookup(request.table)
        if served is None:
            # An unknown name or a table not loaded yet: phase 1 may
            # block, so it runs in the executor.
            loop = asyncio.get_running_loop()
            outcome = await loop.run_in_executor(None, begin)
        else:
            outcome = begin(served=served)
        if isinstance(outcome, CachedAnswer):
            return 200, outcome.body()
        return 200, (await asyncio.wrap_future(outcome)).to_dict()

    def append(payload, query, headers):
        request = AppendRequest.from_dict(payload)
        acknowledged = service.handle_append(
            request, api_key=headers.get("x-api-key")
        )
        return 200, acknowledged.to_dict()

    def register(payload, query, headers):
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"expected a table-spec object, got {type(payload).__name__}"
            )
        name = service.register(
            payload, overwrite=bool(payload.pop("overwrite", False))
        )
        return 201, {"registered": name}

    return {
        ("GET", "/health"): health,
        ("GET", "/tables"): tables,
        ("GET", "/metrics"): metrics,
        ("GET", "/history"): history,
        ("POST", "/explore"): explore,
        ("POST", "/append"): append,
        ("POST", "/tables"): register,
    }


class AsyncServiceServer(JsonHttpServer):
    """The HTTP frontend bound to one :class:`ExplorationService`.

    Usually created through :func:`serve`, which also starts it::

        with serve(service) as server:
            client = ServiceClient(server.url)
            ...

    ``access_log`` is a callable receiving one dict per request
    (default: JSON lines on the ``repro.service.access`` logger;
    ``quiet=True`` only silences the default logger, never an explicit
    callable).
    """

    def __init__(
        self,
        service: ExplorationService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quiet: bool = True,
        access_log: AccessLogger | None = None,
    ):
        self._service = service
        super().__init__(
            _service_routes(service),
            host,
            port,
            # Exploration payloads are tiny; anything bigger is a client
            # bug or abuse.
            max_body_bytes=1 << 20,
            # Explores hold no frontend thread (phase 1 runs on the
            # loop, the run on the service pool).  The executor serves
            # /append, /tables, /metrics, /history and the phase 1 of an
            # explore that must load its table or report an unknown
            # one.  Appends serialize on the catalog lock and a table
            # loads once, so a few threads suffice: one may wait on the
            # lock while the others keep the short reads moving.
            workers=4,
            name="repro-service",
            quiet=quiet,
            access_log=access_log,
            access_fields=self._tenant_field,
        )

    @property
    def service(self) -> ExplorationService:
        """The service being exposed."""
        return self._service

    def _tenant_field(self, headers: dict[str, str]) -> dict:
        """The access-log field this mount adds to the core's record."""
        try:
            tenant = self._service.resolve_tenant(api_key=headers.get("x-api-key"))
        except ServiceError:
            return {"tenant": "?"}
        return {"tenant": tenant.name}

    def close(self, *, close_service: bool = False) -> None:
        """Stop the loop (and optionally the service behind it)."""
        super().close()
        if close_service:
            self._service.close()


def serve(
    service: ExplorationService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
    access_log: AccessLogger | None = None,
) -> AsyncServiceServer:
    """Start an HTTP frontend for ``service`` (port 0 = ephemeral)."""
    return AsyncServiceServer(
        service, host, port, quiet=quiet, access_log=access_log
    ).start()


#: The same function: callers written against either name keep working.
serve_async = serve


# ---------------------------------------------------------------------- #
# Async client
# ---------------------------------------------------------------------- #


class AsyncServiceClient:
    """A keep-alive JSON client for asyncio callers.

    One instance = one connection = one in-flight request at a time
    (HTTP/1.1 without pipelining); run many instances on one loop to
    simulate many clients.  The error surface matches the blocking
    :class:`~repro.service.client.ServiceClient`: server rejections
    resurrect the same typed :class:`ServiceError` subclasses.
    """

    def __init__(
        self,
        base_url: str,
        *,
        api_key: str | None = None,
        timeout: float = 30.0,
    ):
        self._host, self._port = parse_base_url(base_url)
        self._api_key = api_key
        self._timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    @property
    def base_url(self) -> str:
        """The normalized ``http://host:port`` this client talks to."""
        return f"http://{self._host}:{self._port}"

    async def _connect(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        assert self._reader is not None and self._writer is not None
        return self._reader, self._writer

    async def aclose(self) -> None:
        """Close the connection (the client reconnects lazily)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        """One JSON round trip; raises the service's typed errors."""
        reused = self._writer is not None and not self._writer.is_closing()
        try:
            return await asyncio.wait_for(
                self._round_trip(method, path, payload), self._timeout
            )
        except (ConnectionError, asyncio.IncompleteReadError) as exc:
            await self.aclose()
            if not reused:
                raise RemoteServiceError(
                    f"cannot reach service at {self.base_url}: {exc}"
                ) from exc
            # Stale keep-alive socket: the request never reached a
            # handler, so one retry on a fresh connection is safe.
            try:
                return await asyncio.wait_for(
                    self._round_trip(method, path, payload), self._timeout
                )
            except (ConnectionError, asyncio.IncompleteReadError) as retry_exc:
                await self.aclose()
                raise RemoteServiceError(
                    f"cannot reach service at {self.base_url}: {retry_exc}"
                ) from retry_exc
        except asyncio.TimeoutError as exc:
            await self.aclose()
            raise RemoteServiceError(
                f"request to {self.base_url} timed out after "
                f"{self._timeout}s"
            ) from exc

    async def _round_trip(
        self, method: str, path: str, payload: dict | None
    ) -> dict:
        reader, writer = await self._connect()
        body = b""
        headers = [f"{method} {path} HTTP/1.1", f"Host: {self._host}"]
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers.append("Content-Type: application/json")
        headers.append(f"Content-Length: {len(body)}")
        if self._api_key is not None:
            headers.append(f"X-Api-Key: {self._api_key}")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()

        head = await read_head(reader)
        if head is None:
            raise asyncio.IncompleteReadError(b"", None)
        status_line, response_headers = head
        try:
            status = int(status_line.split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise ProtocolError(f"malformed status line {status_line!r}") from exc
        length = int(response_headers.get("content-length", 0) or 0)
        raw = await reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.aclose()
        return decode_response(status, raw, response_headers.get("retry-after"))

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    async def health(self) -> dict:
        """Liveness probe; raises on protocol-version mismatch."""
        payload = await self.request("GET", "/health")
        remote = payload.get("protocol")
        if remote != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol {remote!r}, "
                f"client speaks {PROTOCOL_VERSION!r}"
            )
        return payload

    async def tables(self) -> dict[str, str]:
        """Registered tables (name → provenance)."""
        return (await self.request("GET", "/tables"))["tables"]

    async def metrics(self) -> dict:
        """The server's metrics snapshot."""
        return await self.request("GET", "/metrics")

    async def history(
        self,
        limit: int = 50,
        *,
        tenant: str | None = None,
        status: str | None = None,
    ) -> list[dict]:
        """Recent request-journal entries, newest first."""
        path = history_path(limit, tenant=tenant, status=status)
        return (await self.request("GET", path))["history"]

    async def register_table(self, generator: str, **params: object) -> str:
        """Register a generated table; returns its served name
        (see :meth:`ServiceClient.register_table`)."""
        payload = build_register_payload(generator, **params)
        return (await self.request("POST", "/tables", payload))["registered"]

    async def append(self, table: str, rows: dict) -> AppendResponse:
        """Append columnar rows to a served table
        (see :meth:`ServiceClient.append`)."""
        request = build_append_request(table, rows)
        payload = await self.request("POST", "/append", request.to_dict())
        return AppendResponse.from_dict(payload)

    async def explore(
        self,
        table: str,
        query: "str | dict | None" = None,
        config: "dict | AtlasConfig | None" = None,
        use_cache: bool = True,
        *,
        fidelity: "str | Fidelity | None" = None,
        parallelism: "str | Parallelism | int | None" = None,
        deadline_seconds: float | None = None,
        retry_busy: int = 0,
        busy_backoff: float = 0.05,
    ) -> ExploreResponse:
        """Run one exploration (see :meth:`ServiceClient.explore`).

        The full parameter surface of the blocking client — ``config``
        overrides, ``fidelity``, and ``parallelism`` coerce through the
        same :func:`~repro.service.requests.build_explore_request`, so
        the two clients cannot drift.  Busy retries sleep
        :func:`~repro.service.client.retry_delay` seconds (full first
        step, deterministic jitter, server hint as a floor) — an
        ``await asyncio.sleep``, so other clients on the same loop keep
        running.
        """
        request = build_explore_request(
            table,
            query,
            config,
            use_cache,
            fidelity=fidelity,
            parallelism=parallelism,
            deadline_seconds=deadline_seconds,
        )
        attempt = 0
        while True:
            try:
                payload = await self.request(
                    "POST", "/explore", request.to_dict()
                )
                return ExploreResponse.from_dict(payload)
            except AdmissionError as error:
                if attempt >= retry_busy:
                    raise
                attempt += 1
                await asyncio.sleep(
                    retry_delay(attempt, busy_backoff, error)
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncServiceClient {self.base_url}>"
