"""The cluster coordinator: scatter/gather over shard servers.

:class:`ClusterCoordinator` turns N running
:class:`~repro.cluster.shard.ShardServer` processes into a
:class:`~repro.engine.parallel.ScanVenue`: handed to
:func:`repro.engine.parallel.build_sharded_backend`, it fans the shard
scans out over HTTP — shards assigned to servers in contiguous blocks —
and the one build folds the per-shard results **in shard order**
exactly as it folds local scans, so a cluster answer is bit-identical
to a serial or local-parallel answer over the same shard layout:
"workers are wall-clock, shards are statistics" survives the network
hop unchanged.

Data placement is lazy and versioned: the first scan of a shard a
server does not own answers 409, the coordinator pushes the shard's
column values (``POST /own``) and retries.  A coordinator restart
therefore *re-attaches* to running servers without a handshake — its
first scan simply succeeds against previously pushed state.

Failure handling: each shard call runs under the transport's
per-request timeout; a failed scan is retried once, and a second
failure raises :class:`~repro.service.protocol.ShardUnavailableError`
(HTTP 503 through the service) naming the shard's index, row range,
and server URL.  There is no cross-server failover — re-pushing a
shard elsewhere mid-query would answer correctly (the statistics only
depend on the shard layout) but hide the operational fact an operator
needs to see.

Streaming: a backend built here tells the coordinator about every
advance (:meth:`ClusterCoordinator.append`), which pushes the delta
rows to the server owning the table's tail, so a fresh cluster build at
the new version scans current state.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.protocol import (
    OwnShardRequest,
    ScanRequest,
    ShardAppendRequest,
    numeric_to_wire,
)
from repro.core.config import Fidelity, Parallelism
from repro.dataset.table import Table
from repro.engine.backends import (
    CacheCounters,
    SketchBackend,
    table_fingerprint,
)
from repro.engine.parallel import (
    ScanRecipe,
    ShardedTable,
    ShardStatistics,
    _sketch_attributes,
    build_sharded_backend,
    shard_column_values,
)
from repro.errors import MapError
from repro.service.protocol import (
    RemoteServiceError,
    ShardUnavailableError,
    StaleShardError,
)
from repro.service.transport import HttpTransport


def server_for_shard(shard: int, n_shards: int, n_servers: int) -> int:
    """Which server owns a shard: contiguous blocks, layout-only math.

    Depends on nothing but ``(shard, n_shards, n_servers)`` — the same
    deterministic spirit as shard boundaries — and assigns each server
    a contiguous run of shards, so each server owns one contiguous row
    range of the table.
    """
    if not 0 <= shard < n_shards:
        raise MapError(f"shard {shard} outside [0, {n_shards})")
    return shard * n_servers // n_shards


class ClusterCoordinator:
    """Scatter/gather access to a set of shard servers."""

    def __init__(self, urls: "list[str] | tuple[str, ...]", *,
                 timeout: float = 30.0):
        if not urls:
            raise MapError("a cluster needs at least one shard server URL")
        self._transports = tuple(
            HttpTransport(url, timeout=timeout) for url in urls
        )
        self._urls = tuple(t.base_url for t in self._transports)
        self._timeout = timeout
        self._lock = threading.Lock()
        self._builds = 0  # guarded-by: _lock
        self._shard_retries = 0  # guarded-by: _lock
        self._append_route_failures = 0  # guarded-by: _lock
        # Retries of the calling thread's last scan: a build reads its
        # own count back in provenance() while other builds run.
        self._last_scan = threading.local()

    @property
    def urls(self) -> tuple[str, ...]:
        """Shard-server base URLs, in server order."""
        return self._urls

    @property
    def n_servers(self) -> int:
        """Attached shard servers."""
        return len(self._urls)

    def resolved_servers(self, parallelism: Parallelism) -> int:
        """Servers a ``cluster[:n]`` spec uses: ``auto`` = all attached."""
        if parallelism.workers == "auto":
            return self.n_servers
        return max(1, min(int(parallelism.workers), self.n_servers))

    def _shard_servers(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> tuple[int, ...]:
        """Server index per shard of ``layout``, in shard order."""
        n_servers = self.resolved_servers(parallelism)
        return tuple(
            server_for_shard(index, layout.n_shards, n_servers)
            for index in range(layout.n_shards)
        )

    # ------------------------------------------------------------------ #
    # Health / metrics
    # ------------------------------------------------------------------ #

    def health(self) -> list[dict]:
        """Per-server ``/health`` payloads, in server order."""
        return [t.request("GET", "/health") for t in self._transports]

    def metrics(self) -> dict:
        """Coordinator counters plus per-server ``/metrics`` payloads."""
        with self._lock:
            out: dict = {
                "servers": self.n_servers,
                "builds": self._builds,
                "shard_retries": self._shard_retries,
                "append_route_failures": self._append_route_failures,
            }
        per_server = []
        for url, transport in zip(self._urls, self._transports):
            try:
                payload = transport.request("GET", "/metrics")
            except RemoteServiceError as exc:
                payload = {"error": str(exc)}
            per_server.append({"url": url, **payload})
        out["shard_servers"] = per_server
        return out

    def close(self) -> None:
        """Close the calling thread's server connections."""
        for transport in self._transports:
            transport.close()

    # ------------------------------------------------------------------ #
    # The scatter/gather scan
    # ------------------------------------------------------------------ #

    def build_backend(
        self,
        table: Table,
        fidelity: Fidelity,
        parallelism: Parallelism,
        *,
        seed: int = 0,
        counters: CacheCounters | None = None,
        lock: threading.Lock | None = None,
    ) -> SketchBackend:
        """:func:`~repro.engine.parallel.build_sharded_backend` with
        this cluster as the scan venue (for callers holding a
        coordinator rather than a config)."""
        return build_sharded_backend(
            table, fidelity, parallelism,
            seed=seed, counters=counters, lock=lock,
            venue=self,
        )

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[ShardStatistics]:
        """Scan every shard on its owning server; shard-ordered results.

        Servers scan their contiguous shard blocks concurrently, one
        ``/scan`` per shard.
        """
        assignment = self._shard_servers(layout, recipe.parallelism)
        fingerprint = table_fingerprint(table)

        def scan_block(server: int) -> list[tuple[ShardStatistics, int]]:
            out = []
            for index, (low, high) in enumerate(layout.bounds):
                if assignment[index] != server:
                    continue
                request = ScanRequest(
                    table=table.name,
                    shard=index,
                    low=low,
                    high=high,
                    version=table.version,
                    fingerprint=fingerprint,
                    seed=recipe.seed,
                    budget_rows=recipe.budget_rows,
                    sample_rows=recipe.sample_rows,
                    epsilon=recipe.epsilon,
                )
                out.append(self._scan_shard(
                    server, table, layout,
                    recipe.numeric, recipe.categorical, request,
                ))
            return out

        servers_used = sorted(set(assignment))
        if len(servers_used) == 1:
            blocks = [scan_block(servers_used[0])]
        else:
            with ThreadPoolExecutor(
                max_workers=len(servers_used),
                thread_name_prefix="repro-cluster-scan",
            ) as pool:
                blocks = list(pool.map(scan_block, servers_used))
        scanned = sorted(
            (pair for block in blocks for pair in block),
            key=lambda pair: pair[0].index,
        )
        with self._lock:
            self._builds += 1
        self._last_scan.retries = sum(retries for _, retries in scanned)
        return [stat for stat, _ in scanned]

    def provenance(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> dict[str, object]:
        """Cluster keys of the ``parallel`` block:
        :func:`repro.engine.parallel.merge_shard_info` folds them
        through to the service ``/metrics``."""
        return {
            "servers": self.resolved_servers(parallelism),
            "shard_servers": list(self._shard_servers(layout, parallelism)),
            "cluster_builds": 1,
            "shard_retries": getattr(self._last_scan, "retries", 0),
        }

    # ------------------------------------------------------------------ #
    # Per-shard calls (push-on-409, retry-once, typed 503)
    # ------------------------------------------------------------------ #

    def _scan_shard(
        self,
        server: int,
        table: Table,
        sharded: ShardedTable,
        numeric: tuple,
        categorical: tuple,
        request: ScanRequest,
    ) -> tuple[ShardStatistics, int]:
        """One shard's statistics and the retries they cost."""
        transport = self._transports[server]
        attempts = 0
        while True:
            try:
                try:
                    payload = transport.request(
                        "POST", "/scan", request.to_dict()
                    )
                except StaleShardError:
                    # The server does not own this shard state (fresh
                    # server, or a version behind after a missed
                    # append): push the columns and rescan.
                    self._push_shard(
                        server, table, sharded, request.shard,
                        numeric, categorical,
                    )
                    payload = transport.request(
                        "POST", "/scan", request.to_dict()
                    )
                return (
                    ShardStatistics.from_dict(payload["statistics"]),
                    attempts,
                )
            except RemoteServiceError as exc:
                attempts += 1
                if attempts > 1:
                    low, high = sharded.bounds[request.shard]
                    raise ShardUnavailableError(
                        f"shard {request.shard} of table "
                        f"{table.name!r} (rows [{low}, {high})) is "
                        f"unavailable: server {self._urls[server]} "
                        f"failed twice ({exc})"
                    ) from exc
                with self._lock:
                    self._shard_retries += 1

    def _push_shard(
        self,
        server: int,
        table: Table,
        sharded: ShardedTable,
        shard: int,
        numeric: tuple,
        categorical: tuple,
    ) -> None:
        low, high = sharded.bounds[shard]
        numeric_values, categorical_values = shard_column_values(
            table, low, high, numeric, categorical
        )
        request = OwnShardRequest(
            table=table.name,
            shard=shard,
            low=low,
            high=high,
            version=table.version,
            numeric=numeric_to_wire(numeric_values),
            categorical=[
                (name, capacity, labels)
                for name, capacity, labels in categorical_values
            ],
        )
        self._transports[server].request("POST", "/own", request.to_dict())

    # ------------------------------------------------------------------ #
    # Catalog prewarm
    # ------------------------------------------------------------------ #

    def prewarm(
        self,
        catalog,
        parallelism: Parallelism,
        *,
        persisted_only: bool = True,
    ) -> dict[str, int]:
        """Push a catalog's tables to their owning servers up front.

        The lazy push-on-409 protocol means a restarted coordinator's
        first build of each table pays one full data push inside the
        query's critical path.  ``prewarm`` moves that cost to attach
        time: every (by default persisted) table in the
        :class:`~repro.service.catalog.Catalog` is resolved — a
        store-backed catalog replays it from disk — sharded with the
        given ``parallelism`` layout, and pushed shard by shard to the
        server the layout assigns.  Returns shards pushed per table.

        The push is idempotent server-side (``/own`` replaces shard
        state at the table's version), so prewarming twice, or racing
        a query's own push, is safe.
        """
        pushed: dict[str, int] = {}
        for name in catalog.names():
            if persisted_only and not catalog.is_persisted(name):
                continue
            table = catalog.resolve(name)
            sharded = ShardedTable(table, parallelism.shards)
            numeric, categorical = _sketch_attributes(table)
            for index, server in enumerate(
                self._shard_servers(sharded, parallelism)
            ):
                self._push_shard(
                    server, table, sharded, index, numeric, categorical
                )
            pushed[name] = sharded.n_shards
        return pushed

    # ------------------------------------------------------------------ #
    # Streaming (append routing)
    # ------------------------------------------------------------------ #

    def append(
        self,
        new_table: Table,
        old_sharded: ShardedTable,
        parallelism: Parallelism,
    ) -> None:
        """Route appended rows to the server owning the table's tail.

        Appended rows live past every shard boundary, so they extend
        the owning (last) shard — the same routing
        :meth:`ShardedTable.advanced` applies locally.  Connection
        failures are tolerated (counted, not raised): server-side
        shard state is lazily versioned, so the next scan of a stale
        shard answers 409 and gets a fresh push — the cluster heals
        without coupling local streaming to server liveness.
        """
        old_table = old_sharded.table
        owning = old_sharded.owning_shard(old_table.n_rows)
        server = self._shard_servers(old_sharded, parallelism)[owning]
        low = old_sharded.bounds[owning][0]
        numeric, categorical = _sketch_attributes(new_table)
        numeric_values, categorical_values = shard_column_values(
            new_table, old_table.n_rows, new_table.n_rows,
            numeric, categorical,
        )
        request = ShardAppendRequest(
            table=new_table.name,
            shard=owning,
            from_version=old_table.version,
            to_version=new_table.version,
            high=new_table.n_rows,
            numeric=numeric_to_wire(numeric_values),
            categorical={
                name: labels for name, _, labels in categorical_values
            },
            capacities={name: capacity for name, capacity in categorical},
        )
        transport = self._transports[server]
        try:
            try:
                transport.request("POST", "/append", request.to_dict())
            except StaleShardError:
                # The server missed an earlier delta (or restarted):
                # re-push the whole shard at the new version.
                advanced = old_sharded.advanced(new_table)
                new_high = advanced.bounds[owning][1]
                numeric_full, categorical_full = shard_column_values(
                    new_table, low, new_high, numeric, categorical
                )
                push = OwnShardRequest(
                    table=new_table.name,
                    shard=owning,
                    low=low,
                    high=new_high,
                    version=new_table.version,
                    numeric=numeric_to_wire(numeric_full),
                    categorical=[
                        (name, capacity, labels)
                        for name, capacity, labels in categorical_full
                    ],
                )
                transport.request("POST", "/own", push.to_dict())
        except RemoteServiceError:
            with self._lock:
                self._append_route_failures += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClusterCoordinator servers={len(self._urls)}>"
