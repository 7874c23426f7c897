"""The exploration service: Section-3 map generation as a shared server.

The paper frames Atlas as an *interactive* system — many analysts
firing quasi-real-time queries at one database.  This package is that
deployment shape: a long-lived :class:`ExplorationService` owning
shared per-table :class:`~repro.engine.context.ExecutionContext`\\ s (so
statistics memoized for one client answer the next client's query), a
worker pool for concurrent explores, an LRU result cache keyed by the
deterministic query fingerprint, and admission control that sheds load
with fast 429-style rejections instead of unbounded queueing.

Layers, bottom up:

* :mod:`repro.service.protocol` — the JSON wire shapes (requests,
  answers, errors) built on the ``to_dict/from_dict`` contracts of
  :class:`~repro.core.config.AtlasConfig`,
  :class:`~repro.core.datamap.DataMap`, and
  :class:`~repro.query.query.ConjunctiveQuery`.
* :mod:`repro.service.cache` — the thread-safe LRU result cache.
* :mod:`repro.service.metrics` — request counters and per-stage
  latency percentiles fed by the pipeline's ``StageTimings``.
* :mod:`repro.service.sources` — table sources: in-memory tables,
  :mod:`repro.datagen` generator specs, :mod:`repro.db` connections,
  and :class:`~repro.store.TableStore`-persisted tables, all served
  through one endpoint.
* :mod:`repro.service.catalog` — the :class:`Catalog`: one named-table
  registry (sources, generations, persistence write-through) shared by
  the service, the cluster coordinator, and the REPL.
* :mod:`repro.service.tenancy` — per-tenant API keys, token-bucket
  rate limits, and the fairness-aware admission ledger.
* :mod:`repro.service.history` — the persistent per-request journal
  behind ``/history``.
* :mod:`repro.service.service` — the :class:`ExplorationService` core.
* :mod:`repro.service.httpd` — the one asyncio wire core
  (:class:`~repro.service.httpd.JsonHttpServer`): parse, route, typed
  errors, access log; the shard server mounts it too.
* :mod:`repro.service.async_server` — the service's route table on
  that core (:class:`AsyncServiceServer`, :func:`serve`) and the
  coroutine :class:`AsyncServiceClient`.
* :mod:`repro.service.transport` / :mod:`repro.service.client` — the
  keep-alive transport and the blocking :class:`ServiceClient`.

Quickstart::

    from repro.datagen import census_table
    from repro.service import ExplorationService, ServiceClient, serve

    service = ExplorationService()
    service.register(census_table(n_rows=20_000, seed=0))
    with serve(service) as server:
        client = ServiceClient(server.url)
        answer = client.explore("census", "Age: [17, 90]")
        print(answer.map_set.best.describe())
"""

from repro.service.async_server import (
    AsyncServiceClient,
    AsyncServiceServer,
    serve,
    serve_async,
)
from repro.service.cache import ResultCache
from repro.service.catalog import Catalog
from repro.service.client import ServiceClient
from repro.service.history import QueryHistory
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AdmissionError,
    AppendRequest,
    AppendResponse,
    AuthError,
    DeadlineExceededError,
    ExploreRequest,
    ExploreResponse,
    ProtocolError,
    RateLimitError,
    RemoteServiceError,
    ServiceError,
    UnknownTableError,
)
from repro.service.service import ExplorationService
from repro.service.tenancy import Tenant, TenantRegistry, TokenBucket
from repro.service.sources import (
    TABLE_GENERATORS,
    ConnectionSource,
    InMemorySource,
    StoreSource,
    TableSource,
    build_table,
)

__all__ = [
    "AdmissionError",
    "AppendRequest",
    "AppendResponse",
    "AsyncServiceClient",
    "AsyncServiceServer",
    "AuthError",
    "Catalog",
    "ConnectionSource",
    "DeadlineExceededError",
    "ExplorationService",
    "ExploreRequest",
    "ExploreResponse",
    "InMemorySource",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryHistory",
    "RateLimitError",
    "RemoteServiceError",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "StoreSource",
    "TABLE_GENERATORS",
    "TableSource",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "UnknownTableError",
    "build_table",
    "serve",
    "serve_async",
]
