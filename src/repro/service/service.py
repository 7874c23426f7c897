"""The exploration service core: shared contexts, a worker pool,
result caching, and admission control.

One long-lived :class:`ExplorationService` turns the Section-3 pipeline
into a multi-client system:

* **Shared statistics.**  Explores on the same (table, config) pair run
  through one shared :class:`~repro.engine.context.ExecutionContext`
  (bounded LRU registry), so masks, assignment vectors, and cut points
  memoized for one client's answer are reused verbatim for the next
  client — PR 1's cross-query cache, promoted to cross-*client*.
* **Result cache.**  Whole answers are kept in a thread-safe LRU keyed
  by the deterministic query fingerprint already used for per-query RNG
  derivation (plus table and config), so repeated traffic costs a
  dictionary lookup.
* **Bounded concurrency, fairly shared.**  Pipeline runs execute on a
  fixed worker pool; admission control bounds in-flight work *per
  tenant* (:class:`~repro.service.tenancy.AdmissionLedger`) and sheds
  the excess with a fast :class:`~repro.service.protocol.AdmissionError`
  (HTTP 429) instead of letting latency grow without bound.
* **Tenancy.**  Requests resolve to a :class:`~repro.service.tenancy.
  Tenant` (by API key over HTTP, by name in process); each tenant can
  carry a token-bucket rate limit and an in-flight cap, so one noisy
  key cannot starve the rest — unauthenticated traffic maps to the
  unlimited anonymous tenant and behaves exactly as before.
* **Deadlines.**  A request may carry ``deadline_seconds``; the run is
  cancelled cooperatively *between* pipeline stages
  (:mod:`repro.engine.cancel`) and answers 504 with proof of where it
  stopped — shared contexts stay consistent by construction.
* **History.**  Every request leaves a status-tracked row in the
  :class:`~repro.service.history.QueryHistory` journal (optionally
  file-backed, surviving restarts), served at ``/history``.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from threading import Lock

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.dataset.table import Table
from repro.engine.cancel import CancelToken, PipelineCancelled
from repro.engine.context import (
    ExecutionContext,
    order_sensitive_key,
    query_fingerprint,
)
from repro.engine.parallel import merge_shard_info, new_shard_aggregate
from repro.engine.pipeline import Pipeline
from repro.errors import MapError, StoreError
from repro.query.query import ConjunctiveQuery
from repro.service.cache import ResultCache
from repro.service.catalog import Catalog
from repro.service.history import QueryHistory
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AdmissionError,
    AppendRequest,
    AppendResponse,
    DeadlineExceededError,
    ExploreRequest,
    ExploreResponse,
    ProtocolError,
    RateLimitError,
    ServiceError,
    apply_config_overrides,
    resolve_query_payload,
)
from repro.service.tenancy import AdmissionLedger, Tenant, TenantRegistry
from repro.store import TableStore


def result_cache_key(  # cache-key-of: ExploreRequest (exempt: use_cache, deadline_seconds)
    table: str,
    generation: int,
    version: int,
    config: AtlasConfig,
    query: ConjunctiveQuery,
) -> tuple:
    """The result-cache identity of one resolved explore request.

    Everything that can change an answer is a component, nothing else:

    * ``(table, generation, version)`` pins the exact data the answer
      was computed from — an append bumps the version, a re-register
      bumps the generation, and either makes every older entry
      unreachable (the PR-4 staleness fix).  This is why the key is
      built from *resolved* parts rather than the raw wire request:
      the request names a table, but the answer depends on which rows
      that name served at the time.
    * The fidelity spec is a *dedicated* component (it also travels
      inside the config key): an approximate and an exact answer for
      the same query fingerprint must never collide, even if a future
      config-key change drops or reorders fields.
    * The config key canonicalizes worker counts out
      (:meth:`ExplorationService._config_key`) — they change
      wall-clock, never answers.
    * The query appears both as its order-insensitive fingerprint and
      its order-*sensitive* key: ``user_order`` cutting makes two
      set-equal queries with different value orders distinct answers.

    Rule R4 (atlas-lint) holds this builder to ``ExploreRequest``'s
    field set: a result-affecting request field that never reaches
    this function is reported at parse time.  ``use_cache`` is exempt
    — it controls whether the cache is consulted, not what is stored —
    and so is ``deadline_seconds``: a deadline decides whether an
    answer arrives, never which answer it is.
    """
    return (
        table,
        generation,
        version,
        config.fidelity.spec(),
        ExplorationService._config_key(config),
        query_fingerprint(query),
        order_sensitive_key(query),
    )


def _history_query_text(query: "str | dict | ConjunctiveQuery | None") -> str | None:
    """A compact, human-readable history rendering of a query payload."""
    if query is None:
        return None
    if isinstance(query, str):
        return query
    if isinstance(query, ConjunctiveQuery):
        return query.describe_inline()
    return str(query)


class ExplorationService:
    """A concurrent, caching front over the exploration pipeline.

    Parameters
    ----------
    max_workers:
        Pipeline runs executing in parallel.
    max_queue_depth:
        Runs allowed to *wait* beyond the executing ones; a request
        arriving past ``max_workers + max_queue_depth`` in-flight is
        rejected with :class:`AdmissionError` (HTTP 429).
    result_cache_size:
        Answers retained in the LRU result cache.
    max_contexts:
        (table, config) execution contexts kept alive; least recently
        used are dropped (their memoized statistics go with them).
    config:
        The default :class:`AtlasConfig`; per-request overrides are
        applied on top of it.
    pipeline:
        Stage composition to run; defaults to the Section-3 pipeline.
    tenants:
        :class:`~repro.service.tenancy.Tenant` definitions to register
        up front (more can be added via :meth:`register_tenant`).
    require_api_key:
        Reject unauthenticated requests with 401 instead of mapping
        them to the anonymous tenant.
    history:
        A :class:`~repro.service.history.QueryHistory`, a database
        path (making the journal survive restarts), or ``None`` for a
        fresh in-memory journal.
    store:
        A :class:`~repro.store.TableStore` (or a database path the
        service opens and owns) backing the catalog: tables registered
        with ``persist=True`` write through, appends journal, built
        sketch summaries round-trip — and every table already in the
        store is served immediately, warm-starting a restarted service.
    catalog:
        Share an existing :class:`~repro.service.catalog.Catalog`
        (e.g. with a REPL or a cluster coordinator) instead of building
        one; mutually exclusive with ``store``.
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        max_queue_depth: int = 16,
        result_cache_size: int = 256,
        max_contexts: int = 32,
        config: AtlasConfig | None = None,
        pipeline: Pipeline | None = None,
        tenants: "tuple[Tenant, ...] | list[Tenant] | None" = None,
        require_api_key: bool = False,
        history: "QueryHistory | str | None" = None,
        store: "TableStore | str | None" = None,
        catalog: Catalog | None = None,
    ):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if max_queue_depth < 0:
            raise ServiceError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self._config = config or AtlasConfig()
        self._pipeline = pipeline or Pipeline.default()
        self._results: ResultCache[ExploreResponse] = ResultCache(
            result_cache_size
        )
        self._metrics = ServiceMetrics()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-service"
        )
        self._max_inflight = max_workers + max_queue_depth
        self._tenants = TenantRegistry(require_api_key=require_api_key)
        for tenant in tenants or ():
            self._tenants.register(tenant)
        self._admission = AdmissionLedger(self._max_inflight)
        if isinstance(history, QueryHistory):
            self._history = history
        else:
            self._history = QueryHistory(history or ":memory:")
        self._owns_store = False
        if catalog is not None:
            if store is not None:
                raise ServiceError(
                    "pass either store or catalog, not both (a catalog "
                    "already carries its store)"
                )
            self._catalog = catalog
        else:
            if isinstance(store, str):
                store = TableStore(store)
                self._owns_store = True
            self._catalog = Catalog(store=store)
        # The registry lock guards only the context LRU; the table
        # registry itself (sources, materializations, generations)
        # lives in the catalog behind its own lock.  Lock order is
        # catalog -> registry (appends advance contexts inside the
        # catalog's critical section), never the reverse — anything
        # needing catalog state must read it before taking _registry.
        self._registry = Lock()
        self._contexts: OrderedDict[tuple, ExecutionContext] = (
            OrderedDict()
        )  # guarded-by: _registry
        self._max_contexts = max_contexts
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    # Table registration
    # ------------------------------------------------------------------ #

    @property
    def catalog(self) -> Catalog:
        """The table registry this service serves from (shareable)."""
        return self._catalog

    @property
    def store(self) -> "TableStore | None":
        """The persistent store behind the catalog, if any."""
        return self._catalog.store

    def register(
        self,
        name: "str | None" = None,
        source: "object | None" = None,
        *,
        overwrite: bool = False,
        persist: bool = False,
    ) -> "str | tuple[str, ...]":
        """Serve a table from any source shape — *the* registration verb.

        ``source`` may be a :class:`~repro.dataset.table.Table`, a
        generator-spec mapping (what ``POST /tables`` accepts), any
        :class:`~repro.service.sources.TableSource`, or a
        :mod:`repro.db` connection — a connection with ``name=None``
        registers every visible relation and returns the name tuple.
        ``register(table)`` (source first, no name) derives the name
        from the source.  ``persist=True`` writes the table through to
        the catalog's store; see :meth:`Catalog.register`.
        """
        result = self._catalog.register(
            name, source, overwrite=overwrite, persist=persist
        )
        names = result if isinstance(result, tuple) else (result,)
        with self._registry:
            # Re-registration invalidates any contexts (and through
            # them, memoized statistics) built over the old tenant.
            for key in [k for k in self._contexts if k[0] in names]:
                del self._contexts[key]
        return result

    def table_names(self) -> tuple[str, ...]:
        """Registered table names, registration order."""
        return self._catalog.names()

    def describe_tables(self) -> dict[str, str]:
        """Name → provenance line, for ``/tables`` and diagnostics."""
        return self._catalog.describe()

    def _resolve_table(self, name: str) -> Table:
        return self._catalog.resolve(name)

    def _resolve_with_generation(self, name: str) -> tuple[Table, int]:
        return self._catalog.resolve_with_generation(name)

    # ------------------------------------------------------------------ #
    # Tenancy and history
    # ------------------------------------------------------------------ #

    @property
    def max_inflight(self) -> int:
        """Total admission slots (``max_workers + max_queue_depth``)."""
        return self._max_inflight

    def register_tenant(self, tenant: Tenant) -> Tenant:
        """Add (or replace) a tenant definition; returns it."""
        return self._tenants.register(tenant)

    def resolve_tenant(
        self, tenant: str | None = None, api_key: str | None = None
    ) -> Tenant:
        """The principal a request runs as (401 on unknown keys)."""
        return self._tenants.resolve(tenant=tenant, api_key=api_key)

    @property
    def history(self) -> QueryHistory:
        """The per-request status journal behind ``/history``."""
        return self._history

    def history_entries(
        self,
        limit: int = 50,
        *,
        tenant: str | None = None,
        status: str | None = None,
    ) -> list[dict]:
        """Recent history rows (what ``GET /history`` returns)."""
        return self._history.recent(limit, tenant=tenant, status=status)

    # ------------------------------------------------------------------ #
    # Shared execution contexts
    # ------------------------------------------------------------------ #

    @staticmethod
    def _config_key(config: AtlasConfig) -> tuple:  # cache-key-of: AtlasConfig
        """Identity of a configuration *for caching purposes*.

        The worker count is canonicalized out of the parallelism spec:
        answers are bit-identical at any worker count (only the shard
        layout is statistical), so requests differing in it alone must
        share one execution context — one O(table) statistics build —
        and one result-cache entry.
        """
        key = config.to_dict()
        parallelism = config.parallelism
        key["parallelism"] = Parallelism(
            workers=1, shards=parallelism.shards
        ).spec()
        return tuple(sorted(key.items()))

    def _context_for(
        self, table_name: str, table: Table, config: AtlasConfig
    ) -> ExecutionContext:
        key = (table_name, self._config_key(config))
        with self._registry:
            context = self._contexts.get(key)
            if context is not None:
                self._contexts.move_to_end(key)
                if context.version < table.version:
                    # The context was registered while an append was in
                    # flight and missed the maintenance pass; catch it
                    # up so an answer at an old version can never be
                    # computed for (and cached under) a newer one.
                    context.advance(table)
                return context
        # Cold context.  Ask the catalog for a persisted-summary factory
        # *before* taking the registry lock — the catalog lock may only
        # be taken first (appends advance contexts inside it).
        factory = self._catalog.warm_factory(table_name, table, config)
        fresh = ExecutionContext(table, config)
        with self._registry:
            context = self._contexts.get(key)
            if context is not None:
                # Another request installed one while we built; theirs
                # wins (its statistics may already be loaded).
                self._contexts.move_to_end(key)
                if context.version < table.version:
                    context.advance(table)
            else:
                context = fresh
                while len(self._contexts) >= self._max_contexts:
                    self._contexts.popitem(last=False)
                self._contexts[key] = context
        if factory is not None:
            try:
                context.adopt_stats(factory)
                self._metrics.count("warm_starts")
            except (StoreError, MapError):
                # An append raced the restore (summary version no longer
                # matches the context's table) — a fresh build is always
                # correct, so warm-start failures never fail an explore.
                pass
        return context

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #

    def explore(
        self,
        table: str,
        query: "str | dict | ConjunctiveQuery | None" = None,
        config: dict | AtlasConfig | None = None,
        use_cache: bool = True,
        fidelity: "str | Fidelity | None" = None,
        parallelism: "str | Parallelism | int | None" = None,
        *,
        tenant: str | None = None,
        api_key: str | None = None,
        deadline_seconds: float | None = None,
    ) -> ExploreResponse:
        """Answer one query; the in-process twin of ``POST /explore``.

        ``use_cache=False`` bypasses the result cache entirely (neither
        read nor written) — the cold path benchmarks use it.
        ``fidelity`` overrides the execution fidelity on top of
        ``config`` (a spec string or :class:`Fidelity`);
        ``parallelism`` overrides the multi-core execution the same way
        (a spec string, :class:`Parallelism`, or worker count).  A
        parallel request is *weighed* by the worker processes it asks
        for: admission control charges it ``min(workers, capacity)``
        in-flight slots, so concurrent clients cannot stack more
        sharded builds than the host has cores to give.

        ``tenant``/``api_key`` name the principal (in-process callers
        pass the tenant name; HTTP frontends forward the ``X-Api-Key``
        header); the tenant's token bucket, in-flight cap, and the
        fairness reservation are all enforced here.
        ``deadline_seconds`` bounds the run: past it, the pipeline is
        cancelled cooperatively *between stages* and the call raises
        :class:`DeadlineExceededError` whose ``detail`` proves where it
        stopped.
        """
        self._metrics.count("received")
        if self._admission.closed:
            raise ServiceError("service is shut down")
        principal = self._resolve_checked(tenant, api_key)
        entry = self._history.record(
            tenant=principal.name,
            table=table,
            query=_history_query_text(query),
            fidelity=None if fidelity is None else str(fidelity),
        )
        try:
            response = self._explore_admitted(
                principal,
                entry,
                table,
                query,
                config,
                use_cache,
                fidelity,
                parallelism,
                deadline_seconds,
            )
        except PipelineCancelled as cancelled:
            # The run stopped at a stage boundary; the shared context
            # and caches are exactly as consistent as after a finished
            # run (nothing partial is ever cached).
            self._metrics.count("deadline_exceeded")
            detail = {
                "stages_completed": cancelled.stages_completed,
                "next_stage": cancelled.next_stage,
                "deadline_seconds": deadline_seconds,
            }
            self._history.finish(entry, "deadline_exceeded", detail=detail)
            raise DeadlineExceededError(str(cancelled), detail=detail) from None
        except RateLimitError as error:
            self._metrics.count("rate_limited")
            self._history.finish(
                entry, "rate_limited", detail=dict(error.detail)
            )
            raise
        except AdmissionError as error:
            self._metrics.count("rejected")
            self._history.finish(entry, "rejected", detail=dict(error.detail))
            raise
        except Exception as error:
            self._metrics.count("failed")
            self._history.finish(entry, "failed", detail={"error": str(error)})
            raise
        self._history.finish(
            entry,
            "cached" if response.cached else "completed",
            elapsed=response.elapsed,
        )
        return response

    def _resolve_checked(
        self, tenant: str | None, api_key: str | None
    ) -> Tenant:
        """Resolve the principal, journaling auth rejections."""
        try:
            return self._tenants.resolve(tenant=tenant, api_key=api_key)
        except ServiceError as error:
            self._metrics.count("failed")
            self._history.record(
                tenant="?",
                table="?",
                status="unauthorized",
            )
            raise error

    def _explore_admitted(
        self,
        principal: Tenant,
        entry: int,
        table: str,
        query: "str | dict | ConjunctiveQuery | None",
        config: dict | AtlasConfig | None,
        use_cache: bool,
        fidelity: "str | Fidelity | None",
        parallelism: "str | Parallelism | int | None",
        deadline_seconds: float | None,
    ) -> ExploreResponse:
        # Rate limiting happens before any per-request work: a shed
        # request costs a lock and a few float operations.
        self._tenants.check_rate(principal)
        resolved_query = self._coerce_query(query)
        resolved_config = self._coerce_config(config)
        if fidelity is not None:
            resolved_config = resolved_config.replace(fidelity=fidelity)
        if parallelism is not None:
            resolved_config = resolved_config.replace(parallelism=parallelism)
        table_obj, generation = self._resolve_with_generation(table)

        cache_key = result_cache_key(
            table,
            generation,
            table_obj.version,
            resolved_config,
            resolved_query,
        )
        if use_cache:
            cached = self._results.get(cache_key)
            if cached is not None:
                self._metrics.count("cache_hits")
                return dataclasses.replace(cached, cached=True)

        cancel = (
            CancelToken.with_timeout(deadline_seconds)
            if deadline_seconds is not None
            else None
        )
        weight = self._admission_weight(table, resolved_config)
        # Slot-leak audit: nothing may run between a successful admit
        # and the try below — every later failure, including a worker
        # pool that refuses the submission, must reach the finally.
        self._admission.admit(principal, weight)
        try:
            future = self._pool.submit(
                self._run,
                table,
                table_obj,
                resolved_query,
                resolved_config,
                cache_key if use_cache else None,
                cancel,
            )
            return future.result()
        finally:
            self._admission.release(principal, weight)

    def _admission_weight(self, table_name: str, config: AtlasConfig) -> int:
        """In-flight slots a request occupies.

        A serial request costs one slot; a sharded-parallel request
        costs one per worker process its statistics build may fork
        (clamped to the in-flight capacity so a single over-sized
        request stays admittable on an idle service, and to the shard
        count since a pool never forks more workers than shards).

        Contexts are shared across worker counts (workers never change
        answers, so :meth:`_config_key` canonicalizes them out), which
        means the build runs with the worker count of whichever request
        *created* the context — so the charge is read from the live
        context when one exists, not from the request: a ``parallel:4``
        request served by a ``workers=1`` context costs 1 slot, and a
        ``parallel:1`` request whose shared context would fork 8
        workers on a rebuild costs 8.
        """
        parallelism = config.parallelism
        if not (parallelism.is_parallel and config.fidelity.is_sketch):
            return 1
        key = (table_name, self._config_key(config))
        with self._registry:
            context = self._contexts.get(key)
        if context is not None:
            parallelism = context.config.parallelism
        workers = min(parallelism.resolved_workers, parallelism.shards)
        return max(1, min(workers, self._max_inflight))

    def handle(
        self, request: ExploreRequest, *, api_key: str | None = None
    ) -> ExploreResponse:
        """Serve a wire-shaped request (what the HTTP frontends call)."""
        return self.explore(
            table=request.table,
            query=request.query,
            config=request.config,
            use_cache=request.use_cache,
            fidelity=request.fidelity,
            parallelism=request.parallelism,
            api_key=api_key,
            deadline_seconds=request.deadline_seconds,
        )

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def append(self, table: str, rows: "dict | Table") -> AppendResponse:
        """Append rows to a served table; the twin of ``POST /append``.

        ``rows`` is a columnar mapping (or a same-schema table).  The
        whole transition is atomic with respect to the catalog: the
        delta is journaled to the store first if the table is persisted
        (durability before visibility), the materialized table and its
        source are replaced by the version-bumped successor, and every
        live execution context on the table is *maintained
        incrementally* — sketch backends merge delta sketches and top
        up reservoirs, exact backends drop their version-stale memo
        families — before new explores see the new version.  Old cache
        entries stay keyed to the old version and simply become
        unreachable.
        """

        def advance_contexts(new_table: Table) -> None:
            # Runs inside the catalog's critical section (lock order
            # catalog -> registry), so contexts advance through
            # versions in append order.
            with self._registry:
                for key, context in self._contexts.items():
                    if key[0] == table:
                        context.advance(new_table)

        current, new_table = self._catalog.append(
            table, rows, advance_contexts
        )
        self._metrics.count("appends")
        return AppendResponse(
            table=table,
            version=new_table.version,
            n_rows=new_table.n_rows,
            appended=new_table.n_rows - current.n_rows,
        )

    def handle_append(
        self, request: AppendRequest, *, api_key: str | None = None
    ) -> AppendResponse:
        """Serve a wire-shaped append (what the HTTP frontends call).

        Appends run under the same tenancy rules as explores: the key
        must resolve (401 otherwise when keys are required) and the
        tenant's token bucket is charged one request.
        """
        principal = self._tenants.resolve(api_key=api_key)
        self._tenants.check_rate(principal)
        return self.append(request.table, request.rows)

    def _run(
        self,
        table_name: str,
        table: Table,
        query: ConjunctiveQuery,
        config: AtlasConfig,
        cache_key: tuple | None,
        cancel: CancelToken | None = None,
    ) -> ExploreResponse:
        context = self._context_for(table_name, table, config)
        started = time.perf_counter()
        map_set = self._pipeline.run(query, context, cancel)
        elapsed = time.perf_counter() - started
        self._metrics.observe(map_set.timings, elapsed)
        response = ExploreResponse(
            map_set=map_set, cached=False, elapsed=elapsed
        )
        if cache_key is not None:
            self._results.put(cache_key, response)
        self._maybe_persist_summary(table_name, table, context, config)
        return response

    def _maybe_persist_summary(
        self,
        table_name: str,
        table: Table,
        context: ExecutionContext,
        config: AtlasConfig,
    ) -> None:
        """Write the run's built sketch state through to the store.

        Best-effort: the catalog skips tables that are not persisted,
        configurations that are not summarizable, versions that moved
        under the run, and keys already stored — and a store failure
        must never fail the explore that happened to trigger it.
        """
        if self._catalog.store is None:
            return
        if not config.fidelity.is_sketch or config.sample_size is not None:
            return
        if not self._catalog.is_persisted(table_name):
            return
        if context.table is not table:
            # An append advanced the context past the run's table;
            # asking for statistics over the stale object would build a
            # throwaway backend just to serialize it.  The next explore
            # at the new version persists instead.
            return
        try:
            backend = context.stats_for(table)
            if self._catalog.persist_summary(
                table_name, table, backend, config
            ):
                self._metrics.count("summaries_persisted")
        except (StoreError, MapError):
            pass

    def _coerce_query(
        self, query: "str | dict | ConjunctiveQuery | None"
    ) -> ConjunctiveQuery:
        if isinstance(query, ConjunctiveQuery):
            return query
        return resolve_query_payload(query)

    def _coerce_config(
        self, config: "dict | AtlasConfig | None"
    ) -> AtlasConfig:
        if isinstance(config, AtlasConfig):
            return config
        if config is None or isinstance(config, dict):
            return apply_config_overrides(self._config, config)
        raise ProtocolError(
            f"cannot interpret a {type(config).__name__} as a config"
        )

    # ------------------------------------------------------------------ #
    # Observability and lifecycle
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        """The ``/metrics`` snapshot (JSON-ready)."""
        snapshot = self._metrics.snapshot()
        snapshot["result_cache"] = self._results.snapshot()
        with self._registry:
            contexts = list(self._contexts.values())
            n_contexts = len(self._contexts)
        hits = sum(c.counters.hits for c in contexts)
        misses = sum(c.counters.misses for c in contexts)
        total = hits + misses
        # Per-backend-family breakdown: how much traffic each fidelity
        # serves and how its caches behave, aggregated over contexts.
        backends: dict[str, dict] = {}
        for context in contexts:
            for kind, stats in context.backend_snapshot().items():
                merged = backends.setdefault(
                    kind,
                    {"instances": 0, "hits": 0, "misses": 0, "usage": {}},
                )
                merged["instances"] += stats["instances"]
                merged["hits"] += stats["hits"]
                merged["misses"] += stats["misses"]
                for name, count in stats["usage"].items():
                    merged["usage"][name] = (
                        merged["usage"].get(name, 0) + count
                    )
                if "kernel_nanos" in stats:
                    nanos = merged.setdefault("kernel_nanos", {})
                    for name, value in stats["kernel_nanos"].items():
                        nanos[name] = nanos.get(name, 0) + value
                # Sharded builds report per-shard scan seconds; surface
                # them so operators can see the scan/merge split work.
                shard_info = stats.get("parallel")
                if shard_info:
                    merge_shard_info(
                        merged.setdefault(
                            "parallel", new_shard_aggregate()
                        ),
                        shard_info,
                    )
        for merged in backends.values():
            looked_up = merged["hits"] + merged["misses"]
            merged["hit_rate"] = (
                merged["hits"] / looked_up if looked_up else 0.0
            )
        snapshot["statistics_cache"] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "backends": backends,
        }
        snapshot["service"] = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self._started,
            "pending": self._admission.pending_total(),
            "pending_by_tenant": self._admission.pending_by_tenant(),
            "max_inflight": self._max_inflight,
            "contexts": n_contexts,
            "tables": self.describe_tables(),
            "tenants": self._tenants.snapshot(),
        }
        snapshot["history"] = self._history.counts()
        return snapshot

    def close(self) -> None:
        """Stop accepting work and release the worker pool."""
        self._admission.close()
        self._pool.shutdown(wait=True)
        self._history.close()
        if self._owns_store and self._catalog.store is not None:
            # Only a store the service opened itself (path argument) is
            # closed here; an injected store or shared catalog belongs
            # to the caller.
            self._catalog.store.close()

    def __enter__(self) -> "ExplorationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
