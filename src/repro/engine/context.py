"""Execution context: shared state and memoized statistics for the engine.

The Section-3 pipeline is statistics-hungry — predicate masks, region
assignment vectors, joint contingency tables, cut points, column
entropies — and the seed implementation recomputed all of them inside
each stage on every query.  :class:`ExecutionContext` carries one
table + configuration pair through every stage *and across queries on
the same table*, backed by memoized statistics backends
(:mod:`repro.engine.backends`), so

* the clustering stage no longer recomputes the mutual-information
  inputs that ranking needs again two stages later, and
* a batch (:meth:`repro.engine.facade.Explorer.explore_many`) or an
  interactive session pays for each statistic once, which is the
  quasi-real-time lever of Sections 1/2/5.1 under repeated traffic.

Fidelity: the :attr:`~repro.core.config.AtlasConfig.fidelity` setting
decides which :class:`~repro.engine.backends.StatsBackend` the context
hands to the stages — :class:`~repro.engine.backends.ExactBackend`
(full-table scans) or :class:`~repro.engine.backends.SketchBackend`
(bounded reservoir + one-pass sketches) — so one config switch flips
every entry point between exact and approximate execution.

Determinism: sampling draws from a *per-query child generator* derived
from ``(config.seed, fingerprint(query))`` instead of a shared mutating
generator, so two identical ``explore()`` calls see the same sample and
return the same maps — in any process, in any call order.  Sketch
backends draw their reservoirs from the same family of generators,
tagged by table, so approximate answers are equally reproducible.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Iterable

import numpy as np

from repro.core.config import AtlasConfig
from repro.dataset.table import Table
from repro.engine.backends import (  # noqa: F401 - re-exported for compat
    _MAX_SCOPE_ROWS,
    _MAX_SCOPES,
    _MAX_TABLE_STATS,
    _bounded_put,
    CacheCounters,
    check_advance,
    ExactBackend,
    SketchBackend,
    StatsBackend,
    make_backend,
    order_sensitive_key,
    query_fingerprint,
    table_fingerprint,
)
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery


class ExecutionContext:
    """Everything a pipeline run needs: table, config, rng, statistics.

    One context serves many queries; an
    :class:`~repro.engine.facade.Explorer` keeps one alive across
    queries and appends (until a config change replaces it), so a batch
    or an interactive drill-down session reuses masks and assignment
    vectors computed for earlier answers.

    ``table`` may be ``None`` for pipelines whose stages measure through
    an external system (the SQL-only engine); such stages never touch
    the statistics cache.

    One context may be shared by a pool of worker threads (the
    service's concurrent explores do): the scope/stats registries and
    every memo table run under one shared lock, and concurrent callers
    racing on the same scope always receive the *same* table object, so
    statistics blocks (keyed by identity) are never duplicated.
    """

    def __init__(self, table: Table | None, config: AtlasConfig | None = None):
        if table is not None and table.n_rows == 0:
            raise MapError("cannot explore an empty table")
        self._table = table
        self._config = config or AtlasConfig()
        self._lock = threading.Lock()
        #: One hit/miss counter block per backend family, so `/metrics`
        #: can report exact and sketch cache behavior separately.
        self._kind_counters: dict[str, CacheCounters] = {
            "exact": CacheCounters(),
            "sketch": CacheCounters(),
        }
        self._stats: dict[int, StatsBackend] = {}  # guarded-by: _lock
        self._scopes: dict[ConjunctiveQuery, Table] = {}  # guarded-by: _lock
        # Per-thread cancellation slot: a context is shared by many
        # concurrent runs, so the active CancelToken is thread-local
        # (installed by Pipeline.run around its stage loop) rather than
        # a context-wide field.
        self._cancel_slots = threading.local()

    @property
    def table(self) -> Table:
        """The base table being explored."""
        if self._table is None:
            raise MapError("this context is not bound to an in-memory table")
        return self._table

    @property
    def config(self) -> AtlasConfig:
        """Engine configuration shared by every stage."""
        return self._config

    @property
    def version(self) -> int:
        """Streaming version of the base table (0 for table-less contexts)."""
        return self._table.version if self._table is not None else 0

    @property
    def counters(self) -> CacheCounters:
        """Aggregate hit/miss counters across every backend family.

        Read under the shared lock: the per-kind counter blocks are
        incremented by backends while holding the same lock, so the
        aggregate is a consistent snapshot even while a worker pool is
        hammering the context (the threaded counter regression test
        pins both sides of this contract).
        """
        with self._lock:
            return CacheCounters(
                hits=sum(c.hits for c in self._kind_counters.values()),
                misses=sum(c.misses for c in self._kind_counters.values()),
            )

    # ------------------------------------------------------------------ #
    # Cooperative cancellation
    # ------------------------------------------------------------------ #

    def install_cancel(self, token: "object | None") -> None:
        """Install this thread's active :class:`~repro.engine.cancel.
        CancelToken` (or ``None`` to clear it).

        Called by :meth:`~repro.engine.pipeline.Pipeline.run` around its
        stage loop; long-running cooperative code reached from a stage
        may consult :meth:`check_cancelled` through the same context.
        """
        self._cancel_slots.token = token

    @property
    def active_cancel(self) -> "object | None":
        """The calling thread's installed cancel token, if any."""
        return getattr(self._cancel_slots, "token", None)

    def check_cancelled(
        self, *, stages_completed: int = 0, next_stage: str | None = None
    ) -> None:
        """Raise :class:`~repro.engine.cancel.PipelineCancelled` if this
        thread's run has been cancelled or passed its deadline."""
        token = self.active_cancel
        if token is not None:
            token.check(
                stages_completed=stages_completed, next_stage=next_stage
            )

    # ------------------------------------------------------------------ #
    # Determinism
    # ------------------------------------------------------------------ #

    def child_rng(
        self, source: ConjunctiveQuery | str
    ) -> np.random.Generator:
        """Deterministic child generator from ``(seed, source)``.

        ``source`` is a query (per-query sampling: the §5.1 scope
        sample) or a string tag (per-table sampling: a sketch backend's
        reservoir).  Independent of call order and process, unlike the
        seed implementation's shared mutating generator — identical
        calls return identical samples, so approximate results are
        reproducible per ``(table, config, query)``.
        """
        if isinstance(source, ConjunctiveQuery):
            fingerprint = query_fingerprint(source)
        else:
            fingerprint = zlib.crc32(str(source).encode("utf-8"))
        return np.random.default_rng([self._config.seed, fingerprint])

    # ------------------------------------------------------------------ #
    # Scoping and statistics
    # ------------------------------------------------------------------ #

    def scoped(self, query: ConjunctiveQuery) -> Table:
        """The table a query's pipeline run scans (§5.1 sampling lever).

        With ``config.sample_size`` set, a uniform sample drawn with the
        per-query child generator; cached per query so a batch reuses
        one sample object (and therefore one statistics block).
        """
        base = self.table
        if (
            self._config.sample_size is None
            or self._config.sample_size >= base.n_rows
        ):
            return base  # nothing materialized, nothing to cache
        with self._lock:
            cached = self._scopes.get(query)
        if cached is not None:
            return cached
        table = base.sample(self._config.sample_size, rng=self.child_rng(query))
        if table.n_rows > _MAX_SCOPE_ROWS:
            # A single over-budget sample would flush the whole cache
            # and still violate the budget; serve it uncached instead.
            return table
        with self._lock:
            # A concurrent caller may have drawn the (identical,
            # deterministic) sample first; keep its object so the
            # identity-keyed statistics block stays unique per scope.
            existing = self._scopes.get(query)
            if existing is not None:
                return existing
            if self._table is not base:
                # An advance landed while this sample was drawn: it
                # holds pre-append rows and must not answer later runs.
                return table
            # Materialized samples are evicted FIFO under a row budget
            # so a long-lived context cannot pin unbounded sample
            # copies; the evicted table's statistics block goes with
            # it, or the pinned table copy would outlive its eviction.
            cached_rows = sum(t.n_rows for t in self._scopes.values())
            while self._scopes and (
                len(self._scopes) >= _MAX_SCOPES
                or cached_rows + table.n_rows > _MAX_SCOPE_ROWS
            ):
                evicted = self._scopes.pop(next(iter(self._scopes)))
                cached_rows -= evicted.n_rows
                self._stats.pop(id(evicted), None)
            self._scopes[query] = table
        return table

    def _new_backend(self, table: Table) -> StatsBackend:
        """Build the backend ``config.fidelity`` asks for, seeded
        deterministically per ``(seed, table)`` via :meth:`child_rng`.

        With :attr:`AtlasConfig.parallelism` sharded and a sketch
        fidelity, the *base* table's backend is built by the
        scan/merge split of :mod:`repro.engine.parallel` — per-shard
        statistics scanned concurrently and merged in shard order.  A
        ``cluster`` parallelism hands the build the process's attached
        shard servers (:func:`repro.cluster.active_cluster`) as its
        scan venue; with no cluster attached the build scans locally —
        identical answers either way, since shard layout and merge
        order (not the execution venue) determine the statistics.
        Scope samples (already bounded) and exact fidelity keep the
        serial path.
        """
        fidelity = self._config.fidelity
        parallelism = self._config.parallelism
        if (
            fidelity.is_sketch
            and parallelism.is_parallel
            and table is self._table
        ):
            from repro.engine.parallel import build_sharded_backend

            venue = None
            if parallelism.is_cluster:
                from repro.cluster.runtime import active_cluster

                venue = active_cluster()
            return build_sharded_backend(
                table,
                fidelity,
                parallelism,
                seed=self._config.seed,
                counters=self._kind_counters["sketch"],
                lock=self._lock,
                venue=venue,
            )
        return make_backend(
            table,
            fidelity,
            rng=self.child_rng(f"sketch-backend:{table_fingerprint(table)}"),
            counters=self._kind_counters[
                "sketch" if fidelity.is_sketch else "exact"
            ],
            lock=self._lock,
        )

    def stats_for(self, table: Table) -> StatsBackend:
        """The statistics backend for ``table`` at the configured fidelity.

        Keyed by object identity — tables are immutable and the context
        holds a reference, so identity is stable for the cache lifetime.
        A pipeline run asks once, in its scope stage, and every later
        stage reads that one backend from the run's state.
        """
        with self._lock:
            stats = self._stats.get(id(table))
            if stats is not None:
                return stats
            over_budget = (
                self._table is not None
                and table is not self._table
                and table.n_rows > _MAX_SCOPE_ROWS
            )
        # Backend construction (a sketch backend draws its reservoir
        # here) happens outside the lock; a concurrent race at worst
        # builds one identical backend twice and the first insert wins.
        backend = self._new_backend(table)
        if over_budget:
            # An over-budget sample that scoped() refused to cache must
            # not get pinned through its statistics block either; the
            # run that asked holds the backend for its own stages.
            return backend
        with self._lock:
            existing = self._stats.get(id(table))
            if existing is not None:
                return existing
            _bounded_put(self._stats, id(table), backend, _MAX_TABLE_STATS)
            return backend

    def stats(self) -> StatsBackend:
        """Statistics backend of the base table."""
        return self.stats_for(self.table)

    @property
    def has_base_stats(self) -> bool:
        """True once the base table's backend exists (built, adopted or
        advanced): such a context scans no more, since ``advance``
        consults no venue."""
        with self._lock:
            return self._table is not None and id(self._table) in self._stats

    def adopt_stats(self, factory) -> bool:
        """Install an externally built backend for the *base* table.

        ``factory(table, counters, lock)`` runs outside the
        lock and must return a ready :class:`StatsBackend` over exactly
        ``table`` — the warm-start path of :mod:`repro.store.warm`
        passes a closure that decodes a persisted summary, so the first
        explore on a restarted service skips the scan/build entirely.
        The context stays free of store imports; only the seam lives
        here.  If statistics already exist for the base table the
        existing backend wins and the factory never runs.  Returns True
        only when this call installed the factory's backend.
        """
        table = self.table
        fidelity = self._config.fidelity
        with self._lock:
            if id(table) in self._stats:
                return False
        backend = factory(
            table,
            self._kind_counters["sketch" if fidelity.is_sketch else "exact"],
            self._lock,
        )
        if backend.table is not table:
            raise MapError(
                "adopted backend must be built over the context's base table"
            )
        with self._lock:
            if id(table) in self._stats:
                return False
            _bounded_put(self._stats, id(table), backend, _MAX_TABLE_STATS)
            return True

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def advance(self, new_table: Table) -> StatsBackend | None:
        """Rebind the context to an appended version of its base table.

        The base backend is *maintained*, not rebuilt: its
        :meth:`~StatsBackend.advance` returns a successor over
        ``new_table`` (a sketch successor merges delta sketches into a
        topped-up reservoir, paying for the delta instead of the
        table).  The successor is computed first; then table, scopes
        and backends swap in one critical section, so a reader never
        finds the new base table without its backend, and a reader
        still on the old table keeps the built backend until the swap.
        Scope samples describe pre-append rows and are dropped.
        Returns the successor, or ``None`` when no statistics had been
        built yet.  Of two overlapping advances of one context, the one
        that finishes second raises :class:`MapError`.
        """
        table = self.table  # raises on table-less contexts
        check_advance(table, new_table)
        with self._lock:
            backend = self._stats.get(id(table))
        successor = None
        if backend is not None:
            successor = backend.advance(
                new_table,
                rng=self.child_rng(
                    f"sketch-advance:{table_fingerprint(new_table)}"
                ),
            )
        with self._lock:
            if self._table is not table:
                raise MapError(
                    f"the context moved past version {table.version} "
                    "during this advance"
                )
            self._table = new_table
            self._scopes.clear()
            self._stats.clear()
            if successor is not None:
                self._stats[id(new_table)] = successor
        return successor

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def backend_snapshot(self) -> dict:
        """Per-backend-family cache/usage counters (JSON-ready).

        Aggregates every live backend of this context by ``kind`` —
        :func:`merged_backend_snapshot` over this one context.
        """
        return merged_backend_snapshot((self,))


def merged_backend_snapshot(contexts: Iterable[ExecutionContext]) -> dict:
    """Per-backend-family counters of every live backend of
    ``contexts``, merged by ``kind`` (JSON-ready).

    ``/metrics`` reports it over the service's contexts, so operators
    can see how much traffic each fidelity serves and how well its
    caches behave.
    """
    from repro.engine.parallel import merge_shard_info, new_shard_aggregate

    def add(into: dict, counts: dict) -> None:
        for name, count in counts.items():
            into[name] = into.get(name, 0) + count

    out: dict[str, dict] = {}
    for context in contexts:
        with context._lock:
            backends = list(context._stats.values())
            for kind, counters in context._kind_counters.items():
                block = out.setdefault(kind, {
                    "instances": 0, "hits": 0, "misses": 0, "hit_rate": 0.0,
                    "usage": {},
                })
                block["hits"] += counters.hits
                block["misses"] += counters.misses
        for backend in backends:
            block = out[backend.kind]
            snapshot = backend.snapshot()
            block["instances"] += 1
            add(block["usage"], snapshot["usage"])
            # Sketch backends meter their columnar kernels
            # (:mod:`repro.engine.kernels`).  A sharded one also reports
            # its scan/merge provenance, which keeps the build-scan
            # nanoseconds (disjoint from the post-build delta meters at
            # top level), so fold both.
            if "kernel_nanos" in snapshot:
                add(block.setdefault("kernel_nanos", {}), snapshot["kernel_nanos"])
            shard_info = snapshot.get("parallel")
            if shard_info:
                add(block.setdefault("kernel_nanos", {}), shard_info.get("kernel_nanos", {}))
                merge_shard_info(block.setdefault("parallel", new_shard_aggregate()), shard_info)
    for block in out.values():
        block["hit_rate"] = CacheCounters(block["hits"], block["misses"]).hit_rate
    return out
