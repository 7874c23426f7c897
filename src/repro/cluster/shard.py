"""The shard server: owns row-range shards and scans them on demand.

One :class:`ShardStore` holds the column values of every shard pushed
to this process (``POST /own``), scans them into
:class:`~repro.engine.parallel.ShardStatistics` (``POST /scan``) with
the *same* :func:`~repro.engine.parallel.scan_shard_values` core the
local workers run.  :class:`ShardServer` mounts those routes (plus
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
    numeric_from_wire,
)
from repro.engine.parallel import ShardStatistics, scan_shard_values
from repro.service.httpd import Handler, JsonHttpServer
from repro.service.protocol import ProtocolError, StaleShardError


class _OwnedShard:
    """One shard's values at one ``(low, high, version)``; never
    mutated — ``/own`` replaces it whole."""

    def __init__(self, request: OwnShardRequest):
        self.low = request.low
        self.high = request.high
        self.version = request.version
        self.numeric = numeric_from_wire(request.numeric)
        #: ``(attribute, capacity, labels)`` triples.
        self.categorical = tuple(request.categorical)

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
    scan can race.  A scan takes the owned shard out under the lock and
    runs the (read-only) scan core on it outside.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._shards: dict[tuple[str, int], _OwnedShard] = {}  # guarded-by: _lock
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

    def _owned(self, table: str, shard: int) -> _OwnedShard:  # holds-lock: _lock
        owned = self._shards.get((table, shard))
        if owned is None:
            raise StaleShardError(
                f"shard {shard} of table {table!r} is not owned by this "
                "server; push /own first"
            )
        return owned

    def scan(self, request: ScanRequest) -> ShardStatistics:
        """Scan one owned shard with the shared deterministic core."""
        started = time.perf_counter()
        with self._lock:
            owned = self._owned(request.table, request.shard)
            if not owned.matches(request.low, request.high, request.version):
                raise StaleShardError(
                    f"shard {request.shard} of table {request.table!r} is "
                    f"owned at rows [{owned.low}, {owned.high}) version "
                    f"{owned.version}, but the scan names "
                    f"[{request.low}, {request.high}) version "
                    f"{request.version}; re-push /own"
                )
        statistics = scan_shard_values(
            index=request.shard,
            low=request.low,
            n_rows=request.high - request.low,
            seed=request.seed,
            fingerprint=request.fingerprint,
            budget_rows=request.budget_rows,
            sample_rows=request.sample_rows,
            epsilon=request.epsilon,
            numeric=owned.numeric,
            categorical=owned.categorical,
        )
        with self._lock:
            self._scans += 1
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
                "scans": self._scans,
                "scan_seconds_total": self._scan_seconds_total,
            }


def _shard_routes(store: ShardStore) -> dict[tuple[str, str], Handler]:
    """The five shard routes as ``(payload, query, headers)`` handlers."""
    health = {"status": "ok", "protocol": CLUSTER_PROTOCOL_VERSION}
    return {
        ("GET", "/health"): lambda *_: (200, health),
        ("GET", "/shards"): lambda *_: (200, store.describe()),
        ("GET", "/metrics"): lambda *_: (200, store.metrics()),
        ("POST", "/own"): lambda payload, *_: (
            200,
            store.own(OwnShardRequest.from_dict(payload)),
        ),
        ("POST", "/scan"): lambda payload, *_: (
            200,
            {"statistics": store.scan(ScanRequest.from_dict(payload)).to_dict()},
        ),
    }


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
            # Scans are CPU-bound numpy; a coordinator sends one server
            # its shards one after another.
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
