"""The shard server: owns row-range shards and scans them on demand.

One :class:`ShardStore` holds the column values of every shard pushed
to this process (``POST /own``), scans them into one-shard
:class:`~repro.sketch.state.SketchState` values (``POST /scan``, one
request per coordinator build listing this server's shards) with the
*same* :func:`~repro.engine.parallel.scan_shard_values` core the local
workers run.  :class:`ShardServer` mounts those routes (plus
``GET /health|/shards|/metrics``) on the wire core the exploration
service uses (:class:`~repro.service.httpd.JsonHttpServer`), so both
servers frame requests and type errors identically.

A shard server is deliberately dumb: it never sees queries, configs, or
other shards — only raw column values and a scan recipe.  All layout
decisions (boundaries, server assignment, merge order) live in the
coordinator, which is what keeps the statistical recipe in exactly one
place.
"""

from __future__ import annotations

import threading
import time

from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
    encode_scan_answer,
)
from repro.engine.parallel import scan_shard_values
from repro.service.httpd import Handler, JsonHttpServer, Reply
from repro.service.protocol import ProtocolError, StaleShardError
from repro.sketch.state import SketchState


class _OwnedShard:
    """One shard's values at one ``(low, high, version)``; never
    mutated — ``/own`` replaces it whole."""

    def __init__(self, request: OwnShardRequest):
        self.low = request.low
        self.high = request.high
        self.version = request.version
        self.numeric = request.numeric
        #: ``(attribute, capacity, (codes, dictionary))`` triples.
        self.categorical = request.categorical

    def matches(self, low: int, high: int, version: int) -> bool:
        """True when a request names exactly this owned state."""
        return (
            self.low == low and self.high == high and self.version == version
        )

    def describe(self) -> dict:
        return {
            "low": self.low,
            "high": self.high,
            "version": self.version,
            "rows": self.high - self.low,
        }


class ShardStore:
    """Owned shards of one server process, keyed ``(table, shard)``.

    Thread-safe: the HTTP handlers run on executor threads, so own and
    scan can race.  A scan takes its owned shards out under the lock and
    runs the (read-only) scan core on them outside.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._shards: dict[tuple[str, int], _OwnedShard] = {}  # guarded-by: _lock
        self._scan_requests = 0  # guarded-by: _lock
        self._scans = 0  # guarded-by: _lock
        self._scan_seconds_total = 0.0  # guarded-by: _lock

    def own(self, request: OwnShardRequest) -> dict:
        """Take (or replace) ownership of one shard's values."""
        if request.high < request.low:
            raise ProtocolError(
                f"shard range [{request.low}, {request.high}) is negative"
            )
        owned = _OwnedShard(request)
        with self._lock:
            self._shards[(request.table, request.shard)] = owned
        return {"owned": owned.describe()}

    def scan(self, request: ScanRequest) -> list[SketchState]:
        """Scan every listed shard with the shared deterministic core.

        Ownership of every listed shard is checked before any scan
        runs: if any is stale, one :class:`StaleShardError` names them
        all in ``detail["stale"]``, so the coordinator pushes exactly
        those and sends the scan again.  Statistics come back in
        request order.
        """
        started = time.perf_counter()
        owned = []
        stale: dict[int, str] = {}  # index -> why
        with self._lock:
            self._scan_requests += 1
            for index, low, high in request.shards:
                shard = self._shards.get((request.table, index))
                owned.append(shard)
                if shard is None:
                    stale[index] = "not owned"
                elif not shard.matches(low, high, request.version):
                    stale[index] = (
                        f"owned at rows [{shard.low}, {shard.high}) "
                        f"version {shard.version}, but the scan names "
                        f"[{low}, {high}) version {request.version}"
                    )
        if stale:
            why = "; ".join(
                f"shard {index} is {reason}" for index, reason in stale.items()
            )
            raise StaleShardError(
                f"table {request.table!r}: {why}; re-push /own",
                detail={"stale": list(stale)},
            )
        statistics = [
            scan_shard_values(
                index=index,
                low=low,
                n_rows=high - low,
                seed=request.seed,
                fingerprint=request.fingerprint,
                budget_rows=request.budget_rows,
                sample_rows=request.sample_rows,
                epsilon=request.epsilon,
                numeric=shard.numeric,
                categorical=shard.categorical,
            )
            for (index, low, high), shard in zip(request.shards, owned)
        ]
        with self._lock:
            self._scans += len(statistics)
            self._scan_seconds_total += time.perf_counter() - started
        return statistics

    def describe(self) -> dict:
        """Owned shards, for ``GET /shards`` and re-attach checks."""
        with self._lock:
            return {
                "shards": [
                    {"table": table, "shard": shard, **owned.describe()}
                    for (table, shard), owned in sorted(self._shards.items())
                ]
            }

    def metrics(self) -> dict:
        """Counters for ``GET /metrics``."""
        with self._lock:
            return {
                "shards_owned": len(self._shards),
                "rows_owned": sum(
                    owned.high - owned.low
                    for owned in self._shards.values()
                ),
                "scan_requests": self._scan_requests,
                "scans": self._scans,
                "scan_seconds_total": self._scan_seconds_total,
            }


def _shard_routes(store: ShardStore) -> dict[tuple[str, str], Handler]:
    """The five shard routes as ``(payload, query, headers)`` handlers;
    ``/health`` is a coroutine, so it is answered on the event loop."""

    async def health(*_: object) -> Reply:
        return 200, {"status": "ok", "protocol": CLUSTER_PROTOCOL_VERSION}

    return {
        ("GET", "/health"): health,
        ("GET", "/shards"): lambda *_: (200, store.describe()),
        ("GET", "/metrics"): lambda *_: (200, store.metrics()),
        ("POST", "/own"): lambda payload, *_: (
            200,
            store.own(OwnShardRequest.from_dict(payload)),
        ),
        ("POST", "/scan"): lambda payload, *_: (200, _scan(store, payload)),
    }


def _scan(store: ShardStore, payload: object) -> dict:
    request = ScanRequest.from_dict(payload)
    return encode_scan_answer(request, store.scan(request))


class ShardServer(JsonHttpServer):
    """The HTTP frontend of one :class:`ShardStore`.

    Usually created through :func:`serve_shard` (in-process, for tests
    and the coordinator's local fallback) or ``python -m repro.cluster``
    (a standalone process, for real deployments and the E21 bench)::

        with serve_shard() as server:
            coordinator = ClusterCoordinator([server.url])
    """

    def __init__(
        self,
        store: ShardStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        quiet: bool = True,
    ) -> None:
        self._store = store if store is not None else ShardStore()
        super().__init__(
            _shard_routes(self._store),
            host,
            port,
            # ``/own`` bodies carry whole column slices.
            max_body_bytes=1 << 28,
            # Scans are CPU-bound numpy; a coordinator build sends each
            # server one /scan listing all of its shards.
            workers=8,
            name="repro-shard",
            quiet=quiet,
        )

    @property
    def store(self) -> ShardStore:
        """The shard store being exposed."""
        return self._store


def serve_shard(
    host: str = "127.0.0.1", port: int = 0, *, quiet: bool = True
) -> ShardServer:
    """Start an in-process shard server (port 0 = ephemeral)."""
    return ShardServer(host=host, port=port, quiet=quiet).start()
