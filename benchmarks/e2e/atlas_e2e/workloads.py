"""The six workloads: what each sets up, sends, and checks.

Every service is ``ExplorationService(max_workers=2, max_queue_depth=16)``
with every other default.  Tables come from ``repro.datagen`` at datagen
``seed=0``; the op stream is a pure function of ``--seed``
(:mod:`atlas_e2e.opstream`).  Only ``register(source)`` and the names
the roadmap keeps (``serve``, ``serve_async``, ``ServiceClient``,
``AsyncServiceClient``, ``attach_cluster``, ``spawn_local_cluster``) are
used, so the harness survives the planned refactors unchanged.

A workload is set up, driven and torn down by :mod:`atlas_e2e.report`:
``setup()`` is everything before the first timed op (data generation,
``register``, store write-through, server and cluster spawn, shard
placement, warm-up ops); ``run_phase()`` is one closed-loop phase;
``verify()`` checks the answers against an in-process oracle.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import shutil
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.cluster import attach_cluster, detach_cluster, spawn_local_cluster
from repro.datagen import census_table, sky_survey_table, support_tickets_table
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.evaluation.metrics import map_set_fingerprint
from repro.service import (
    AsyncServiceClient,
    ExplorationService,
    ExploreResponse,
    ServiceClient,
    serve,
    serve_async,
)
from repro.service.protocol import AppendResponse
from repro.service.requests import build_append_request, build_explore_request
from repro.service.transport import HttpTransport
from repro.store import TableStore

from atlas_e2e import opstream
from atlas_e2e.loadgen import ClientStream, OpRecord, run_coroutines, run_threads
from atlas_e2e.spans import OpenSpan, SpanRecorder

SERVICE_ARGS = {"max_workers": 2, "max_queue_depth": 16}
SKETCH = "sketch:20000"
#: ``--smoke`` runs tables at this share of their size (floor 2 000 rows).
SMOKE_SCALE = 0.02
#: One answer in this many is kept whole and compared with the oracle.
KEEP_EVERY = 10
#: A traced phase alternates blocks of this many decomposed and plain ops.
TRACE_BLOCK = 10
#: At most this many kept answers are recomputed by the oracle.
ORACLE_SAMPLE = 30
STAGES = ("sampling", "candidates", "clustering", "merging", "ranking")


def describe_dimensions(
    table: Table,
) -> tuple[list[opstream.NumericDim], list[opstream.CategoricalDim]]:
    """The table's mappable attributes, summarized once for the op stream.

    ``dimension_columns()`` and ``min()``/``max()`` scan the column, so
    this runs in set-up and never between ops.
    """
    numeric, categorical = [], []
    for column in table.dimension_columns():
        if isinstance(column, NumericColumn):
            numeric.append(opstream.NumericDim(column.name, column.min(), column.max()))
        elif isinstance(column, CategoricalColumn):
            categorical.append(opstream.CategoricalDim(column.name, tuple(column.categories)))
    return numeric, categorical


def columnar_rows(table: Table, low: int, high: int) -> dict[str, list]:
    """Rows ``[low, high)`` in the columnar wire shape ``append`` takes."""
    rows: dict[str, list] = {}
    for column in table.columns:
        if isinstance(column, NumericColumn):
            values = column.data[low:high]
            rows[column.name] = [None if np.isnan(v) else v for v in values.tolist()]
        else:
            labels = column.categories
            rows[column.name] = [
                labels[code] if code >= 0 else None for code in column.codes[low:high].tolist()
            ]
    return rows


def add_server_spans(
    recorder: SpanRecorder, parent: OpenSpan, response: ExploreResponse
) -> None:
    """Child spans of a closed span, from the server's report in the answer.

    ``elapsed`` (the pipeline run) and ``map_set.timings`` (its stages)
    are durations without clock readings, so the spans are laid to end
    where the parent ended; only their lengths are meaningful, which is
    all self time needs.  A cached answer replays the timings of the run
    that computed it, so it gets no server spans.
    """
    if response.cached:
        return
    timings = response.map_set.timings
    start = parent.end_ns - int(response.elapsed * 1e9)
    pipeline = recorder.add("server.pipeline", start, parent.end_ns, parent)
    cursor = start
    for stage in STAGES:
        length = int(getattr(timings, stage) * 1e9)
        recorder.add(f"stage.{stage}", cursor, cursor + length, pipeline)
        cursor += length


def is_traced(index: int) -> bool:
    """Whether op ``index`` of a traced phase runs decomposed.

    Decomposed and plain ops alternate inside one phase so that both
    see the same state (table size, cache fill).  They alternate in
    blocks, not op by op, because a decomposed op rides its own
    connection and the kernel's delayed-ACK heuristics follow each
    connection's cadence: one op in two leaves 40 ms gaps that make the
    threaded frontend's 44 ms stall vanish from the traced half.
    """
    return (index // TRACE_BLOCK) % 2 == 1


@dataclasses.dataclass(frozen=True)
class ProbeInputs:
    """What the isolated layer probes run on: the workload's own inputs."""

    table: Table
    queries: tuple[str, ...]
    fidelity: str
    #: ``"serve"`` or ``"serve_async"`` — the workload's frontend, or the
    #: production default for a workload that has none.
    frontend: str
    #: Running shard servers to reuse; None spawns a scratch pair.
    shard_urls: tuple[str, ...] | None = None
    #: The batch a streaming op appends before it explores, if it does.
    append_rows: dict | None = None


@dataclasses.dataclass(frozen=True)
class Note:
    """What a workload keeps of one answer for its checks."""

    cached: bool
    version: int
    #: ``MapSet.timings`` of the answer (a cached answer replays the
    #: timings of the run that computed it).
    timings: object
    #: The whole answer, for one op in ``KEEP_EVERY``.
    response: ExploreResponse | None = None
    #: Version acknowledged by the append of a ``stream_persist`` pair.
    acked_version: int | None = None


class Workload:
    """Common lifecycle; subclasses fill in the data, the op and the oracle."""

    name = ""
    why = ""
    clients = 1
    table_name = ""
    table_rows = 0
    fidelity = "exact"
    path = ""
    warmup_ops = 20

    def __init__(self, *, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.table: Table | None = None
        self._stack = contextlib.ExitStack()
        self._streams: list[ClientStream] = []
        self._setups = 0

    # -- sizing ---------------------------------------------------------

    def rows(self) -> int:
        """Table rows at this run's scale (``--smoke`` shrinks tables)."""
        return max(2_000, int(self.table_rows * self.scale))

    def keep(self, index: int) -> bool:
        return index % KEEP_EVERY == self.seed % KEEP_EVERY

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first timed op, warm-up included."""
        self._setups += 1
        self._stack = contextlib.ExitStack()
        try:
            self.build()
            warmup = self.run_phase(ops_per_client=max(1, self.warmup_ops // self.clients))
            errors = [r.error for r in warmup if r.error is not None]
            if errors:
                raise RuntimeError(f"{len(errors)} warm-up op(s) failed, first: {errors[0]}")
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        self._stack.close()

    def scratch_dir(self) -> Path:
        """A fresh directory per set-up, removed again by ``teardown``."""
        path = self.workdir / f"{self.name}-{self._setups}"
        path.mkdir(parents=True)
        self._stack.callback(shutil.rmtree, path, ignore_errors=True)
        return path

    def build(self) -> None:
        raise NotImplementedError

    def op_streams(self) -> list[Iterator[object]]:
        raise NotImplementedError

    def start_streams(self) -> None:
        self._streams = [ClientStream(i, ops) for i, ops in enumerate(self.op_streams())]

    # -- driving --------------------------------------------------------

    def do(self, client: int, index: int, op: object, recorder: SpanRecorder | None) -> Note:
        raise NotImplementedError

    def run_phase(
        self,
        *,
        seconds: float | None = None,
        ops_per_client: int | None = None,
        recorder: SpanRecorder | None = None,
    ) -> list[OpRecord]:
        """One closed-loop phase.  With a recorder, every other block of
        ``TRACE_BLOCK`` ops is traced (see :func:`is_traced`)."""

        def do(client: int, index: int, op: object) -> Note:
            traced = recorder if recorder is not None and is_traced(index) else None
            return self.do(client, index, op, traced)

        return run_threads(self._streams, do, seconds=seconds, ops_per_client=ops_per_client)

    # -- checking -------------------------------------------------------

    def service_metrics(self) -> dict:
        """The service's ``metrics()`` snapshot, read around a phase."""
        raise NotImplementedError

    def metrics_baseline(self) -> dict:
        """The snapshot the traced phase's counters are counted from."""
        return self.service_metrics()

    def probe_inputs(self) -> ProbeInputs:
        raise NotImplementedError

    def verify(self, records: list[OpRecord]) -> list[str]:
        """Messages for every op the oracle or an invariant rejects."""
        raise NotImplementedError

    def oracle_sample(self, records: list[OpRecord]) -> list[OpRecord]:
        """A seeded subset of the ops whose whole answer was kept."""
        kept = [r for r in records if r.note is not None and r.note.response is not None]
        if len(kept) <= ORACLE_SAMPLE:
            return kept
        rng = opstream.stream_rng(self.seed, 0, "oracle")
        picked = rng.choice(len(kept), size=ORACLE_SAMPLE, replace=False)
        return [kept[int(i)] for i in sorted(picked)]

    def check_pending(self, failures: list[str]) -> None:
        pending = self.service_metrics()["service"]["pending"]
        if pending != 0:
            failures.append(f"{pending} admission slot(s) still pending after the run")


def _note(response: ExploreResponse, keep: bool, acked_version: int | None = None) -> Note:
    return Note(
        cached=response.cached,
        version=response.map_set.version,
        timings=response.map_set.timings,
        response=response if keep else None,
        acked_version=acked_version,
    )


def _compare(
    failures: list[str], record: OpRecord, expected: ExploreResponse, what: str = "oracle"
) -> None:
    got = map_set_fingerprint(record.note.response.map_set)
    want = map_set_fingerprint(expected.map_set)
    if got != want:
        failures.append(
            f"client {record.client} op {record.index}: answer differs from the {what}"
        )


def traced_explore(
    recorder: SpanRecorder | None, explore: Callable[[], ExploreResponse]
) -> ExploreResponse:
    """An in-process ``explore`` call, under spans when there is a recorder."""
    if recorder is None:
        return explore()
    with recorder.span("op") as root:
        with recorder.span("service.explore", root) as span:
            response = explore()
    add_server_spans(recorder, span, response)
    return response


class _HttpExplore:
    """The parts of ``ServiceClient.explore``, each under its own span."""

    def __init__(self, url: str):
        self.transport = HttpTransport(url)

    def explore(
        self, recorder: SpanRecorder, parent: OpenSpan, table: str, query: str, **kwargs
    ) -> ExploreResponse:
        with recorder.span("client.encode", parent):
            payload = build_explore_request(table, query, **kwargs).to_dict()
        with recorder.span("transport", parent) as transport:
            answer = self.transport.request("POST", "/explore", payload)
        with recorder.span("client.decode", parent):
            response = ExploreResponse.from_dict(answer)
        add_server_spans(recorder, transport, response)
        return response

    def append(
        self, recorder: SpanRecorder, parent: OpenSpan, table: str, rows: dict
    ) -> AppendResponse:
        with recorder.span("client.encode", parent):
            payload = build_append_request(table, rows).to_dict()
        with recorder.span("transport.append", parent):
            answer = self.transport.request("POST", "/append", payload)
        with recorder.span("client.decode", parent):
            return AppendResponse.from_dict(answer)


# ---------------------------------------------------------------------- #
# 1. inproc_exact
# ---------------------------------------------------------------------- #


class InprocExact(Workload):
    name = "inproc_exact"
    why = (
        "The paper's pipeline with nothing around it: distinct exact-fidelity queries in process, "
        "so only engine.stages/core and ExactBackend work; wire changes must leave it flat."
    )
    table_name = "skysurvey"
    table_rows = 100_000
    path = "in-process ExplorationService.explore(use_cache=False)"

    def build(self) -> None:
        self.table = sky_survey_table(n_rows=self.rows(), seed=0)
        self.numeric, _ = describe_dimensions(self.table)
        self.service = ExplorationService(**SERVICE_ARGS)
        self._stack.callback(self.service.close)
        self.service.register(self.table)
        self.start_streams()

    def op_streams(self):
        return [opstream.numeric_queries(self.numeric, opstream.stream_rng(self.seed, 0, "ops"))]

    def do(self, client, index, op, recorder):
        response = traced_explore(
            recorder, lambda: self.service.explore(self.table_name, op, use_cache=False)
        )
        return _note(response, self.keep(index))

    def service_metrics(self):
        return self.service.metrics()

    def probe_inputs(self):
        queries = opstream.numeric_queries(self.numeric, opstream.stream_rng(self.seed, 0, "probe"))
        return ProbeInputs(
            self.table, tuple(next(queries) for _ in range(16)), self.fidelity, "serve_async"
        )

    def verify(self, records):
        failures: list[str] = []
        with ExplorationService(**SERVICE_ARGS) as oracle:
            oracle.register(self.table)
            for record in self.oracle_sample(records):
                expected = oracle.explore(self.table_name, record.op, use_cache=False)
                _compare(failures, record, expected)
        self.check_pending(failures)
        return failures


# ---------------------------------------------------------------------- #
# 2. async_sketch
# ---------------------------------------------------------------------- #


class AsyncSketch(Workload):
    name = "async_sketch"
    why = (
        "The production default under light concurrency: serve_async, two clients on one loop, "
        "sketch fidelity, every query distinct, so admission, history and cache insert/evict run "
        "on every op."
    )
    clients = 2
    table_name = "census"
    table_rows = 500_000
    fidelity = SKETCH
    path = "serve_async + two AsyncServiceClient coroutines on one loop"

    def build(self) -> None:
        self.table = census_table(n_rows=self.rows(), seed=0)
        numeric, self.categorical = describe_dimensions(self.table)
        self.age = next(dim for dim in numeric if dim.name == "Age")
        self.service = ExplorationService(**SERVICE_ARGS)
        self._stack.callback(self.service.close)
        self.service.register(self.table)
        self.server = serve_async(self.service)
        self._stack.callback(self.server.close)
        self.loop = asyncio.new_event_loop()
        self._stack.callback(self.loop.close)
        self.connections = [AsyncServiceClient(self.server.url) for _ in range(self.clients)]
        self._stack.callback(self.close_connections)
        self.start_streams()

    def close_connections(self) -> None:
        for connection in self.connections:
            self.loop.run_until_complete(connection.aclose())

    def op_streams(self):
        return [
            opstream.range_and_set_queries(
                self.age, self.categorical, opstream.stream_rng(self.seed, client, "ops")
            )
            for client in range(self.clients)
        ]

    async def do_async(self, client, index, op, recorder):
        connection = self.connections[client]
        if recorder is None:
            response = await connection.explore(self.table_name, op, fidelity=SKETCH)
            return _note(response, self.keep(index))
        with recorder.span("op") as root:
            with recorder.span("client.encode", root):
                payload = build_explore_request(self.table_name, op, fidelity=SKETCH).to_dict()
            with recorder.span("transport", root) as transport:
                answer = await connection.request("POST", "/explore", payload)
            with recorder.span("client.decode", root):
                response = ExploreResponse.from_dict(answer)
        add_server_spans(recorder, transport, response)
        return _note(response, self.keep(index))

    def run_phase(self, *, seconds=None, ops_per_client=None, recorder=None):
        async def do(client, index, op):
            traced = recorder if recorder is not None and is_traced(index) else None
            return await self.do_async(client, index, op, traced)

        return self.loop.run_until_complete(
            run_coroutines(self._streams, do, seconds=seconds, ops_per_client=ops_per_client)
        )

    def service_metrics(self):
        return self.service.metrics()

    def probe_inputs(self):
        queries = opstream.range_and_set_queries(
            self.age, self.categorical, opstream.stream_rng(self.seed, 0, "probe")
        )
        return ProbeInputs(
            self.table, tuple(next(queries) for _ in range(16)), SKETCH, "serve_async"
        )

    def verify(self, records):
        failures = [
            f"client {r.client} op {r.index}: a distinct query was answered from the cache"
            for r in records
            if r.note is not None and r.note.cached
        ]
        with ExplorationService(**SERVICE_ARGS) as oracle:
            oracle.register(self.table)
            for record in self.oracle_sample(records):
                expected = oracle.explore(
                    self.table_name, record.op, fidelity=SKETCH, use_cache=False
                )
                _compare(failures, record, expected)
        self.check_pending(failures)
        return failures


# ---------------------------------------------------------------------- #
# 3. cached_blocking
# ---------------------------------------------------------------------- #


class CachedBlocking(Workload):
    name = "cached_blocking"
    why = (
        "The quickstart path: serve() and two blocking clients replaying a 32-query pool from the "
        "result cache, so the op is client serde, transport, HTTP parse and a cache hit; engine "
        "changes leave it flat."
    )
    clients = 2
    table_name = "census"
    table_rows = 40_000
    path = "serve() + two blocking ServiceClient threads"
    pool_size = 32

    def build(self) -> None:
        self.table = census_table(n_rows=self.rows(), seed=0)
        numeric, categorical = describe_dimensions(self.table)
        age = next(dim for dim in numeric if dim.name == "Age")
        # The pool is the same for every seed, which only orders the
        # replay: what the exact backend memoizes for 32 answers decides
        # the resident memory, and that should not move with the seed.
        queries = opstream.range_and_set_queries(
            age, categorical, opstream.stream_rng(0, 0, "pool")
        )
        self.pool = tuple(next(queries) for _ in range(self.pool_size))
        self.service = ExplorationService(**SERVICE_ARGS)
        self._stack.callback(self.service.close)
        self.service.register(self.table)
        self.server = serve(self.service)
        self._stack.callback(self.server.close)
        self.connections = [ServiceClient(self.server.url) for _ in range(self.clients)]
        for connection in self.connections:
            self._stack.callback(connection.close)
        self.traced = _HttpExplore(self.server.url)
        self._stack.callback(self.traced.transport.close)
        # The priming pass: every pool answer is computed once and from
        # then on served from the 256-entry result cache.
        self.primed = [self.connections[0].explore(self.table_name, q) for q in self.pool]
        self.start_streams()

    def op_streams(self):
        return [
            opstream.replay(self.pool_size, opstream.stream_rng(self.seed, client, "ops"))
            for client in range(self.clients)
        ]

    def do(self, client, index, op, recorder):
        query = self.pool[op]
        if recorder is None:
            response = self.connections[client].explore(self.table_name, query)
            return _note(response, self.keep(index))
        with recorder.span("op") as root:
            response = self.traced.explore(recorder, root, self.table_name, query)
        return _note(response, self.keep(index))

    def service_metrics(self):
        return self.service.metrics()

    def probe_inputs(self):
        return ProbeInputs(self.table, self.pool[:16], self.fidelity, "serve")

    def verify(self, records):
        failures = [
            f"client {r.client} op {r.index}: a pool query missed the result cache"
            for r in records
            if r.note is not None and not r.note.cached
        ]
        with ExplorationService(**SERVICE_ARGS) as oracle:
            oracle.register(self.table)
            for record in self.oracle_sample(records):
                expected = oracle.explore(self.table_name, self.pool[record.op], use_cache=False)
                _compare(failures, record, expected)
        self.check_pending(failures)
        return failures


# ---------------------------------------------------------------------- #
# 4. cluster_cold_build
# ---------------------------------------------------------------------- #


class ClusterColdBuild(Workload):
    name = "cluster_cold_build"
    why = (
        "Context acquisition by scatter/gather: every op carries a fresh config seed, so it scans "
        "8 shards over HTTP on 2 servers, folds, then runs the pipeline; kernel, venue and hop "
        "costs show here only."
    )
    table_name = "skysurvey"
    # Small on purpose.  Each op makes four back-to-back hops to each of
    # two servers, and at the seed commit every hop waits out the
    # threaded frontend's 44 ms delayed-ACK stall.  With scans this short
    # all four hops stall on every op, which is steady; with 100k rows
    # and more, between one and four do, and the op time jumps by 40 ms
    # steps from one minute to the next.
    table_rows = 25_000
    fidelity = SKETCH
    path = "in-process service with attach_cluster(spawn_local_cluster(2)), parallelism=cluster"
    # The first op places the columns on the servers; a few more reach
    # the steady state.  Each costs a full build, so fewer than usual.
    warmup_ops = 8

    def build(self) -> None:
        self.table = sky_survey_table(n_rows=self.rows(), seed=0)
        self.numeric, _ = describe_dimensions(self.table)
        self.servers = spawn_local_cluster(2)
        for server in self.servers:
            self._stack.callback(server.terminate)
        self.coordinator = attach_cluster([server.url for server in self.servers])
        self._stack.callback(self.coordinator.close)
        self._stack.callback(detach_cluster)
        self.service = ExplorationService(**SERVICE_ARGS)
        self._stack.callback(self.service.close)
        self.service.register(self.table)
        self.start_streams()

    def op_streams(self):
        return [opstream.numeric_queries(self.numeric, opstream.stream_rng(self.seed, 0, "ops"))]

    def explore(self, service, index, query, parallelism):
        # Op i carries config seed i, so no two ops share a context.
        return service.explore(
            self.table_name,
            query,
            config={"seed": index},
            fidelity=SKETCH,
            parallelism=parallelism,
            use_cache=False,
        )

    def do(self, client, index, op, recorder):
        response = traced_explore(
            recorder, lambda: self.explore(self.service, index, op, "cluster")
        )
        return _note(response, self.keep(index))

    def service_metrics(self):
        return self.service.metrics()

    def probe_inputs(self):
        queries = opstream.numeric_queries(self.numeric, opstream.stream_rng(self.seed, 0, "probe"))
        return ProbeInputs(
            self.table,
            tuple(next(queries) for _ in range(16)),
            SKETCH,
            "serve_async",
            shard_urls=tuple(server.url for server in self.servers),
        )

    def verify(self, records):
        failures: list[str] = []
        # The oracle is the local serial build over the same 8 shards:
        # the venue is never part of the statistical recipe.
        with ExplorationService(**SERVICE_ARGS) as oracle:
            oracle.register(self.table)
            for record in self.oracle_sample(records):
                expected = self.explore(oracle, record.index, record.op, "parallel:1:8")
                _compare(failures, record, expected, "local serial 8-shard build")
        retries = self.coordinator.metrics()["shard_retries"]
        if retries:
            failures.append(f"{retries} shard call(s) were retried")
        self.check_pending(failures)
        return failures


# ---------------------------------------------------------------------- #
# 5. stream_persist
# ---------------------------------------------------------------------- #


class StreamPersist(Workload):
    name = "stream_persist"
    why = (
        "Writes beside reads on the same layers: append a 500-row batch to a persisted table, then "
        "explore it; journal-before-swap, store.append, Column.concat, context advance, cache "
        "invalidation by version."
    )
    table_name = "census"
    table_rows = 200_000
    fidelity = SKETCH
    path = "serve_async + one ServiceClient, service opened with store=<tmp>/atlas.db"
    batch_rows = 500
    #: Distinct batches; the stream cycles through them, so a run of any
    #: length needs only this many prepared.
    n_batches = 200
    query = "Age: [20, 60]"

    def build(self) -> None:
        base = self.rows()
        full = census_table(n_rows=base + self.n_batches * self.batch_rows, seed=0)
        self.initial = full.take(np.arange(base), name=full.name)
        self.table = self.initial
        self.batches = [
            columnar_rows(full, low, low + self.batch_rows)
            for low in range(base, full.n_rows, self.batch_rows)
        ]
        self.store_path = str(self.scratch_dir() / "atlas.db")
        self.service = ExplorationService(**SERVICE_ARGS, store=self.store_path)
        self._stack.callback(self.service.close)
        self.service.register(self.initial, persist=True)
        self.server = serve_async(self.service)
        self._stack.callback(self.server.close)
        self.connection = ServiceClient(self.server.url)
        self._stack.callback(self.connection.close)
        self.traced = _HttpExplore(self.server.url)
        self._stack.callback(self.traced.transport.close)
        self.start_streams()

    def op_streams(self):
        # The batch order is a seeded permutation, cycled.
        order = opstream.stream_rng(self.seed, 0, "ops").permutation(self.n_batches)

        def cycle():
            while True:
                yield from (int(i) for i in order)

        return [cycle()]

    def do(self, client, index, op, recorder):
        batch = self.batches[op]
        if recorder is None:
            ack = self.connection.append(self.table_name, batch)
            response = self.connection.explore(self.table_name, self.query, fidelity=SKETCH)
            return _note(response, self.keep(index), ack.version)
        with recorder.span("op") as root:
            ack = self.traced.append(recorder, root, self.table_name, batch)
            response = self.traced.explore(
                recorder, root, self.table_name, self.query, fidelity=SKETCH
            )
        return _note(response, self.keep(index), ack.version)

    def service_metrics(self):
        return self.service.metrics()

    def probe_inputs(self):
        return ProbeInputs(
            self.initial, (self.query,), SKETCH, "serve_async", append_rows=self.batches[0]
        )

    #: The oracle replays the appends; it stops checking answers here.
    oracle_horizon = 120

    def verify(self, records):
        failures: list[str] = []
        done = [r for r in records if r.note is not None]
        for record in done:
            # One client, so op i is append number i + 1.
            expected = record.index + 1
            if record.note.acked_version != expected or record.note.version != expected:
                failures.append(
                    f"op {record.index}: acknowledged version {record.note.acked_version}, "
                    f"answered at {record.note.version}, expected {expected}"
                )
        # Durability of acknowledged writes: a second connection to the
        # store file replays exactly the initial rows plus every batch.
        appends = max((r.note.acked_version for r in done), default=0)
        with TableStore(self.store_path) as reopened:
            stored = reopened.load_table(self.table_name)
        want_rows = self.initial.n_rows + appends * self.batch_rows
        if stored.version != appends or stored.n_rows != want_rows:
            failures.append(
                f"reopened store has {stored.n_rows} rows at version {stored.version}, "
                f"expected {want_rows} at {appends}"
            )
        # An in-process twin without a store takes the same appends and
        # answers at the kept versions below the horizon.
        kept = {
            r.index: r
            for r in self.oracle_sample(records)
            if r.index < self.oracle_horizon
        }
        if kept:
            stream = self.op_streams()[0]
            with ExplorationService(**SERVICE_ARGS) as oracle:
                oracle.register(self.initial)
                for index in range(max(kept) + 1):
                    oracle.append(self.table_name, self.batches[next(stream)])
                    # The twin's context must be born where the served
                    # one was: at the first answer, after one append.
                    if index == 0 or index in kept:
                        expected = oracle.explore(self.table_name, self.query, fidelity=SKETCH)
                    if index in kept:
                        _compare(failures, kept[index], expected, "in-process twin")
        self.check_pending(failures)
        return failures


# ---------------------------------------------------------------------- #
# 6. warm_restart
# ---------------------------------------------------------------------- #


class WarmRestart(Workload):
    name = "warm_restart"
    why = (
        "The store read path and nothing else: open a service over a persisted table with one "
        "sketch summary, answer the first exploration (3 of 8 queries use text predicates), close; "
        "no scan, no wire."
    )
    table_name = "support_tickets"
    table_rows = 100_000
    fidelity = SKETCH
    path = "construct ExplorationService(store=path), first explore, close()"
    warmup_ops = 8
    queries = (
        "hours_open: [0, 48]\ntitle: match 'disk'",
        "severity: {'critical', 'high'}\ntitle: contains 'outage'",
        "title: match 'timeout error'",
        "hours_open: [2, 100]",
        "component: {'storage', 'network'}",
        "severity: {'low'}\nhours_open: [0, 24]",
        "component: {'auth', 'ui', 'api'}\nseverity: {'medium', 'high'}",
        "hours_open: [10, 500]\ncomponent: {'billing', 'api'}",
    )

    def build(self) -> None:
        self.table = support_tickets_table(n_rows=self.rows(), seed=0)
        self.store_path = str(self.scratch_dir() / "atlas.db")
        # The pre-restart service persists the table and, with its first
        # sketch answer, the summary; its answers are the oracle.
        with ExplorationService(**SERVICE_ARGS, store=self.store_path) as service:
            service.register(self.table, persist=True)
            self.before = [
                service.explore(self.table_name, query, fidelity=SKETCH, use_cache=False)
                for query in self.queries
            ]
        self.start_streams()

    def op_streams(self):
        return [opstream.replay(len(self.queries), opstream.stream_rng(self.seed, 0, "ops"))]

    def do(self, client, index, op, recorder):
        query = self.queries[op]
        if recorder is None:
            with ExplorationService(**SERVICE_ARGS, store=self.store_path) as service:
                response = service.explore(
                    self.table_name, query, fidelity=SKETCH, use_cache=False
                )
            return _note(response, self.keep(index))
        with recorder.span("op") as root:
            with recorder.span("service.boot", root):
                service = ExplorationService(**SERVICE_ARGS, store=self.store_path)
            try:
                with recorder.span("service.explore", root) as span:
                    response = service.explore(
                        self.table_name, query, fidelity=SKETCH, use_cache=False
                    )
            finally:
                with recorder.span("service.close", root):
                    service.close()
        add_server_spans(recorder, span, response)
        return _note(response, self.keep(index))

    def service_metrics(self):
        """The snapshot of one more restarted service after its answer.

        Every op owns its service, so there is no counter that runs
        across the phase; one op's snapshot is what this workload has.
        """
        with ExplorationService(**SERVICE_ARGS, store=self.store_path) as service:
            service.explore(self.table_name, self.queries[0], fidelity=SKETCH, use_cache=False)
            return service.metrics()

    def metrics_baseline(self):
        # A restarted service starts from zero.
        return {}

    def probe_inputs(self):
        return ProbeInputs(self.table, self.queries, SKETCH, "serve_async")

    def verify(self, records):
        failures: list[str] = []
        for record in self.oracle_sample(records):
            _compare(failures, record, self.before[record.op], "pre-restart answer")
        metrics = self.service_metrics()
        if metrics["requests"]["warm_starts"] < 1:
            failures.append("a restarted service did not adopt the persisted summary")
        if metrics["service"]["pending"] != 0:
            failures.append("an admission slot is still pending after the answer")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        InprocExact,
        AsyncSketch,
        CachedBlocking,
        ClusterColdBuild,
        # Before stream_persist, which writes and then deletes half a
        # gigabyte of store per run (a sketch summary is persisted at
        # every version); for a minute afterwards the disk is slower,
        # and this is the other workload that opens files on every op.
        WarmRestart,
        StreamPersist,
    )
}
