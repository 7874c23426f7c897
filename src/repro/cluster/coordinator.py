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

Each server gets **one** ``/scan`` per build, listing all of its
shards; the servers are scanned concurrently.  Data placement is lazy
and versioned: a scan listing shards a server does not own answers one
409 naming them, the coordinator pushes exactly those shards' column
values (``POST /own``) and sends the scan again.  A coordinator restart
therefore *re-attaches* to running servers without a handshake — its
first scan simply succeeds against previously pushed state.  Appends
never reach the servers: a backend built here maintains itself
locally, and the next build over the grown table finds every shard's
range and version stale, so it pushes each shard once.

Failure handling: each server call runs under the transport's
per-request timeout; a failed batch — no answer, an error answer, or
an answer whose statistics do not decode or name the wrong shards —
is retried once, and a second failure raises
:class:`~repro.service.protocol.ShardUnavailableError` (HTTP 503
through the service) naming the server URL and each shard's index and
row range.  There is no cross-server failover — re-pushing a
shard elsewhere mid-query would answer correctly (the statistics only
depend on the shard layout) but hide the operational fact an operator
needs to see.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.protocol import (
    OwnShardRequest,
    ScanRequest,
    decode_scan_answer,
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
    build_sharded_backend,
    shard_column_values,
)
from repro.errors import MapError, SketchError
from repro.service.protocol import (
    RemoteServiceError,
    ServiceError,
    ShardUnavailableError,
    StaleShardError,
)
from repro.service.transport import HttpTransport
from repro.sketch.state import SketchState


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
        """Close every server connection, on every thread."""
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
    ) -> list[SketchState]:
        """Scan every shard on its owning server; shard-ordered results.

        One ``/scan`` per server lists that server's contiguous shard
        block; the servers scan concurrently.
        """
        assignment = self._shard_servers(layout, recipe.parallelism)
        fingerprint = table_fingerprint(table)
        blocks: dict[int, list[tuple[int, int, int]]] = {}
        for index, (low, high) in enumerate(layout.bounds):
            blocks.setdefault(assignment[index], []).append(
                (index, low, high)
            )

        def scan_block(server: int) -> tuple[list[SketchState], int]:
            request = ScanRequest(
                table=table.name,
                version=table.version,
                fingerprint=fingerprint,
                seed=recipe.seed,
                budget_rows=recipe.budget_rows,
                sample_rows=recipe.sample_rows,
                epsilon=recipe.epsilon,
                shards=tuple(blocks[server]),
            )
            return self._scan_server(server, table, recipe, request)

        servers_used = sorted(blocks)
        if len(servers_used) == 1:
            scanned = [scan_block(servers_used[0])]
        else:
            with ThreadPoolExecutor(
                max_workers=len(servers_used),
                thread_name_prefix="repro-cluster-scan",
            ) as pool:
                scanned = list(pool.map(scan_block, servers_used))
        with self._lock:
            self._builds += 1
        self._last_scan.retries = sum(retries for _, retries in scanned)
        return sorted(
            (stat for block, _ in scanned for stat in block),
            key=lambda stat: stat.provenance["shard"],
        )

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
    # Per-server calls (push-on-409, retry-once, typed 503)
    # ------------------------------------------------------------------ #

    def _scan_server(
        self,
        server: int,
        table: Table,
        recipe: ScanRecipe,
        request: ScanRequest,
    ) -> tuple[list[SketchState], int]:
        """One server's shard statistics and the retries they cost."""
        transport = self._transports[server]
        body = request.to_dict()
        attempts = 0
        while True:
            try:
                try:
                    payload = transport.request("POST", "/scan", body)
                except StaleShardError as exc:
                    # The server does not own some listed shard state
                    # (fresh server, or the table grew since the last
                    # push): push exactly those shards and rescan.
                    for index, low, high in _stale_shards(exc, request):
                        self._push_shard(
                            server, table, recipe, index, low, high
                        )
                    payload = transport.request("POST", "/scan", body)
                # A malformed answer is the server's failure, not the
                # client's: it decodes here, inside the retry.
                return decode_scan_answer(payload, request.shards), attempts
            except (ServiceError, SketchError) as exc:
                attempts += 1
                if attempts > 1:
                    shards = ", ".join(
                        f"shard {index} (rows [{low}, {high}))"
                        for index, low, high in request.shards
                    )
                    raise ShardUnavailableError(
                        f"{shards} of table {table.name!r} unavailable: "
                        f"server {self._urls[server]} failed twice ({exc})"
                    ) from exc
                with self._lock:
                    self._shard_retries += 1

    def _push_shard(
        self,
        server: int,
        table: Table,
        recipe: ScanRecipe,
        index: int,
        low: int,
        high: int,
    ) -> None:
        numeric, categorical = shard_column_values(
            table, low, high, recipe.numeric, recipe.categorical
        )
        request = OwnShardRequest(
            table=table.name,
            shard=index,
            low=low,
            high=high,
            version=table.version,
            numeric=numeric,
            categorical=categorical,
        )
        self._transports[server].request("POST", "/own", request.to_dict())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClusterCoordinator servers={len(self._urls)}>"


def _stale_shards(
    error: StaleShardError, request: ScanRequest
) -> list[tuple[int, int, int]]:
    """The listed shards a 409's ``detail["stale"]`` names.

    A 409 that names none of them is a malformed answer.
    """
    named = error.detail.get("stale")
    stale = [
        shard for shard in request.shards
        if isinstance(named, list) and shard[0] in named
    ]
    if not stale:
        raise SketchError(
            f"409 names no listed shard as stale: {named!r} ({error})"
        )
    return stale
