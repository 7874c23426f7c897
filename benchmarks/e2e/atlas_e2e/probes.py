"""Isolated per-layer probes, run on a workload's own inputs.

The traced pass shows where one op's time goes; most layers, though,
sit on only some workloads' paths.  Each probe here calls one layer's
public functions directly — on the workload's table, queries, fidelity
and frontend — so every workload reports every per-layer metric and a
change to a layer can be read off beside the end-to-end numbers.

Every measurement is a span in the shared recorder (so it lands in the
trace file too) and each metric is an aggregate over the spans of one
name.  Cluster and store probes run on at most ``PROBE_ROWS`` rows of
the table: they move the whole table over HTTP or into SQLite, and the
traced run has to stay inside the benchmark's time cap.

A probe imports what it measures inside its own body: when a later
refactor removes a symbol, that probe alone reports ``None`` with a
note, and the run goes on.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from atlas_e2e.spans import SpanRecorder, self_time_by_name
from atlas_e2e.workloads import (
    SERVICE_ARGS,
    SKETCH,
    ProbeInputs,
    add_server_spans,
    columnar_rows,
)

PROBE_ROWS = 100_000
BATCH_ROWS = 500
SHARDS = 8

US = 1e3
MS = 1e6


def capped(table, limit: int = PROBE_ROWS):
    if table.n_rows <= limit:
        return table
    return table.take(np.arange(limit), name=table.name)


def median(recorder: SpanRecorder, name: str, per: float) -> float:
    """Median duration of the spans called ``name``, in ``per`` ns units."""
    return statistics.median(recorder.durations_ns(name)) / per


def median_self(recorder: SpanRecorder, name: str, per: float) -> float:
    return statistics.median(self_time_by_name(recorder.spans)[name]) / per


def first_batch(table) -> dict[str, list]:
    return columnar_rows(table, 0, min(BATCH_ROWS, table.n_rows))


# ---------------------------------------------------------------------- #
# query, protocol
# ---------------------------------------------------------------------- #


def probe_query(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.query.parser import parse_query

    for _ in range(5):
        for text in inputs.queries:
            with recorder.span("query.parse"):
                parse_query(text)
    return {"query.parse_us": median(recorder, "query.parse", US)}


def probe_protocol(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.service import ExploreResponse
    from repro.service.requests import build_append_request, build_explore_request

    name = inputs.table.name
    request_bytes = []
    for text in inputs.queries:
        with recorder.span("protocol.request_encode"):
            body = json.dumps(
                build_explore_request(name, text, fidelity=inputs.fidelity).to_dict()
            )
            if inputs.append_rows is not None:
                # The op of a streaming workload sends both requests.
                body += json.dumps(build_append_request(name, inputs.append_rows).to_dict())
        request_bytes.append(len(body.encode("utf-8")))
    response_bytes = []
    for response in scratch.answers:
        with recorder.span("protocol.response_encode"):
            body = json.dumps(response.to_dict())
        response_bytes.append(len(body.encode("utf-8")))
        with recorder.span("protocol.response_decode"):
            ExploreResponse.from_dict(json.loads(body))
    return {
        "protocol.request_encode_us": median(recorder, "protocol.request_encode", US),
        "protocol.request_bytes": statistics.median(request_bytes),
        "protocol.response_encode_us": median(recorder, "protocol.response_encode", US),
        "protocol.response_decode_us": median(recorder, "protocol.response_decode", US),
        "protocol.response_bytes": statistics.median(response_bytes),
    }


# ---------------------------------------------------------------------- #
# transport + frontend, service
# ---------------------------------------------------------------------- #


def probe_wire(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.service import ExploreResponse
    from repro.service.requests import build_explore_request
    from repro.service.transport import HttpTransport

    name = inputs.table.name
    transport = HttpTransport(scratch.url)
    try:
        transport.request("GET", "/health")  # connect outside the spans
        for _ in range(20):
            with recorder.span("transport.health"):
                transport.request("GET", "/health")
        for text in inputs.queries[:8]:
            uncached = build_explore_request(
                name, text, use_cache=False, fidelity=inputs.fidelity
            )
            with recorder.span("wire.explore") as span:
                answer = transport.request("POST", "/explore", uncached.to_dict())
            add_server_spans(recorder, span, ExploreResponse.from_dict(answer))
            with recorder.span("service.handle") as span:
                response = scratch.service.handle(uncached)
            add_server_spans(recorder, span, response)
        for text in inputs.queries[:8]:
            cached = build_explore_request(name, text, fidelity=inputs.fidelity)
            scratch.service.handle(cached)  # fills the result cache
            for _ in range(2):
                with recorder.span("wire.cached_explore"):
                    answer = transport.request("POST", "/explore", cached.to_dict())
                if not answer["cached"]:
                    raise RuntimeError("the probe's repeated request missed the result cache")
                with recorder.span("service.handle_cached"):
                    scratch.service.handle(cached)
    finally:
        transport.close()
    handle_cached = median(recorder, "service.handle_cached", US)
    return {
        "transport.health_rtt_us": median(recorder, "transport.health", US),
        # Self time: client wall minus the server's own ``elapsed``.
        "transport.explore_wire_us": median_self(recorder, "wire.explore", US),
        "frontend.cached_overhead_us": median(recorder, "wire.cached_explore", US) - handle_cached,
        "service.handle_cached_us": handle_cached,
        "service.handle_overhead_us": median_self(recorder, "service.handle", US),
    }


def probe_history(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.service import QueryHistory

    with QueryHistory(":memory:") as history:
        for _ in range(100):
            with recorder.span("history.record_finish"):
                entry = history.record(
                    tenant="anonymous", table=inputs.table.name, query=inputs.queries[0]
                )
                history.finish(entry, "completed", elapsed=0.001)
    return {"history.record_finish_us": median(recorder, "history.record_finish", US)}


def probe_tenancy(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.service import TenantRegistry
    from repro.service.tenancy import AdmissionLedger

    registry = TenantRegistry()
    tenant = registry.resolve()
    ledger = AdmissionLedger(SERVICE_ARGS["max_workers"] + SERVICE_ARGS["max_queue_depth"])
    for _ in range(200):
        with recorder.span("tenancy.admit_release"):
            registry.check_rate(tenant)
            ledger.admit(tenant)
            ledger.release(tenant)
    return {"tenancy.admit_release_us": median(recorder, "tenancy.admit_release", US)}


# ---------------------------------------------------------------------- #
# engine: backends, kernels, parallel
# ---------------------------------------------------------------------- #


def probe_backends(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.core.config import AtlasConfig
    from repro.engine.context import ExecutionContext

    table = inputs.table
    for seed in range(3):
        with recorder.span("backend.exact.build"):
            ExecutionContext(table, AtlasConfig(seed=seed)).stats()
        context = ExecutionContext(table, AtlasConfig(fidelity=SKETCH, seed=seed))
        with recorder.span("backend.sketch.build"):
            context.stats()
        grown = table.append(first_batch(table))
        with recorder.span("backend.advance"):
            context.advance(grown)
    return {
        "backend.exact.build_ms": median(recorder, "backend.exact.build", MS),
        "backend.sketch.build_ms": median(recorder, "backend.sketch.build", MS),
        "backend.advance_ms": median(recorder, "backend.advance", MS),
    }


def probe_kernels(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.dataset.column import CategoricalColumn, NumericColumn
    from repro.engine.kernels import frequency_summary_from_codes, quantile_summary

    columns = inputs.table.dimension_columns()
    numeric = next(c for c in columns if isinstance(c, NumericColumn))
    categorical = next(c for c in columns if isinstance(c, CategoricalColumn))
    categories = list(categorical.categories)
    for _ in range(3):
        with recorder.span("kernels.quantile"):
            # sorted_clean_values + the GK build, as the shard scan runs them
            quantile_summary(numeric.data, 0.01)
        with recorder.span("kernels.frequency"):
            frequency_summary_from_codes(categorical.codes, categories, len(categories))
    mrows = inputs.table.n_rows / 1e6
    return {
        "kernels.quantile_ms_per_mrow": median(recorder, "kernels.quantile", MS) / mrows,
        "kernels.frequency_ms_per_mrow": median(recorder, "kernels.frequency", MS) / mrows,
    }


def sketch_attributes(table) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...]]:
    """Numeric names and (categorical name, counter budget) pairs to scan."""
    from repro.dataset.column import CategoricalColumn, NumericColumn

    numeric, categorical = [], []
    for column in table.dimension_columns():
        if isinstance(column, NumericColumn):
            numeric.append(column.name)
        elif isinstance(column, CategoricalColumn):
            categorical.append((column.name, max(1, min(256, len(column.categories)))))
    return tuple(numeric), tuple(categorical)


def probe_parallel(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.core.config import Fidelity, Parallelism
    from repro.engine.backends import table_fingerprint
    from repro.engine.parallel import (
        ShardedTable,
        build_sharded_backend,
        fold_shard_statistics,
        scan_shard_values,
        shard_column_values,
    )

    table = scratch.small
    fidelity = Fidelity.parse(SKETCH)
    numeric, categorical = sketch_attributes(table)
    shared = {
        "seed": 0,
        "fingerprint": table_fingerprint(table),
        "budget_rows": fidelity.budget_rows,
        "sample_rows": fidelity.budget_rows < table.n_rows,
    }
    kernel_ms = []
    for _ in range(3):
        results = []
        for index, (low, high) in enumerate(ShardedTable(table, SHARDS).bounds):
            values, labels = shard_column_values(
                table, low, high, numeric, categorical, decode_labels=False
            )
            with recorder.span("parallel.scan_shard"):
                results.append(
                    scan_shard_values(
                        index=index,
                        low=low,
                        n_rows=high - low,
                        epsilon=fidelity.epsilon,
                        numeric=values,
                        categorical=labels,
                        **shared,
                    )
                )
        with recorder.span("parallel.fold"):
            fold_shard_statistics(results, **shared)
        with recorder.span("parallel.build"):
            backend = build_sharded_backend(
                table, fidelity, Parallelism(workers=1, shards=SHARDS), seed=0
            )
        kernel_ms.append(sum(backend.snapshot()["parallel"]["kernel_nanos"].values()) / MS)
    return {
        "parallel.scan_shard_ms": median(recorder, "parallel.scan_shard", MS),
        "parallel.fold_ms": median(recorder, "parallel.fold", MS),
        "parallel.build_ms": median(recorder, "parallel.build", MS),
        "kernels.reported_ms": statistics.median(kernel_ms),
    }


# ---------------------------------------------------------------------- #
# cluster
# ---------------------------------------------------------------------- #


@contextlib.contextmanager
def shard_servers(inputs: ProbeInputs) -> Iterator[tuple[str, ...]]:
    """The workload's running shard servers, or a scratch pair."""
    if inputs.shard_urls is not None:
        yield inputs.shard_urls
        return
    from repro.cluster import spawn_local_cluster

    servers = spawn_local_cluster(2)
    try:
        yield tuple(server.url for server in servers)
    finally:
        for server in servers:
            server.terminate()


def probe_cluster(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.cluster import ClusterCoordinator
    from repro.core.config import Fidelity, Parallelism
    from repro.service.transport import HttpTransport

    table = scratch.small
    fidelity = Fidelity.parse(SKETCH)
    parallelism = Parallelism.cluster(shards=SHARDS)
    slowest_block_ms = []
    with shard_servers(inputs) as urls:
        coordinator = ClusterCoordinator(urls)
        try:
            # The first build places the columns on the servers.
            coordinator.build_backend(table, fidelity, parallelism, seed=0)
            for seed in range(1, 4):
                with recorder.span("cluster.build"):
                    backend = coordinator.build_backend(table, fidelity, parallelism, seed=seed)
                blocks: dict[int, float] = {}
                for server, seconds in zip(backend.shard_servers, backend.shard_seconds):
                    blocks[server] = blocks.get(server, 0.0) + seconds
                # A server scans its shards one after another and the
                # build waits for the slower server.
                slowest_block_ms.append(max(blocks.values()) * 1e3)
            retries = coordinator.metrics()["shard_retries"]
        finally:
            coordinator.close()
        transport = HttpTransport(urls[0])
        try:
            transport.request("GET", "/health")
            for _ in range(15):
                with recorder.span("cluster.shard_rtt"):
                    transport.request("GET", "/health")
        finally:
            transport.close()
    build_ms = median(recorder, "cluster.build", MS)
    scan_ms = statistics.median(slowest_block_ms)
    fold_ms = median(recorder, "parallel.fold", MS)
    return {
        "cluster.build_ms": build_ms,
        "cluster.shard_scan_ms": scan_ms,
        "cluster.hop_overhead_ms": build_ms - scan_ms - fold_ms,
        "cluster.shard_rtt_us": median(recorder, "cluster.shard_rtt", US),
        "cluster.shard_retries": retries,
    }


# ---------------------------------------------------------------------- #
# dataset, catalog, store
# ---------------------------------------------------------------------- #


def probe_dataset(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    table = inputs.table
    batch = first_batch(table)
    for _ in range(5):
        with recorder.span("dataset.append"):
            table = table.append(batch)
    return {"dataset.append_ms": median(recorder, "dataset.append", MS)}


def user_bytes(table) -> int:
    """Raw bytes of the columns: value buffers plus label dictionaries."""
    from repro.dataset.column import NumericColumn

    total = 0
    for column in table.columns:
        if isinstance(column, NumericColumn):
            total += column.data.nbytes
        else:
            total += column.codes.nbytes
            total += sum(len(label.encode("utf-8")) for label in column.categories)
    return total


def probe_store(recorder: SpanRecorder, inputs: ProbeInputs, scratch: "Scratch") -> dict:
    from repro.core.config import AtlasConfig
    from repro.engine.context import ExecutionContext
    from repro.service import Catalog, ExplorationService
    from repro.store import (
        SketchSummary,
        TableStore,
        extract_summary,
        restore_backend,
        summary_key,
    )

    table = scratch.small
    name = table.name
    batch = first_batch(table)
    config = AtlasConfig(fidelity=SKETCH)
    with tempfile.TemporaryDirectory(prefix="probe-store-", dir=scratch.workdir) as tmp:
        path = os.path.join(tmp, "atlas.db")
        with TableStore(path) as store:
            catalog = Catalog(store=store)
            catalog.register(name, table, persist=True)
            for _ in range(3):
                # Journal, swap, and the caller's context advance (none here).
                with recorder.span("catalog.append"):
                    catalog.append(name, batch, lambda new_table: None)
            current = catalog.resolve(name)
            for _ in range(3):
                delta = current.coerce_delta(batch)
                grown = current.append(delta)
                with recorder.span("store.append"):
                    store.append(
                        name, delta, from_version=current.version, to_version=grown.version
                    )
                current = grown
            for _ in range(3):
                with recorder.span("store.load_table"):
                    stored = store.load_table(name)
            backend = ExecutionContext(stored, config).stats()
            key = summary_key(config)
            document = extract_summary(backend, table_name=name, key=key).to_dict()
            for _ in range(3):
                with recorder.span("store.put_summary"):
                    store.put_summary(name, stored.version, key, document)
                with recorder.span("store.get_summary"):
                    loaded = store.get_summary(name, stored.version, key)
                with recorder.span("warm.restore"):
                    restore_backend(SketchSummary.from_dict(loaded), stored)
            stored_bytes = sum(
                os.path.getsize(path + suffix)
                for suffix in ("", "-wal")
                if os.path.exists(path + suffix)
            )
        for _ in range(3):
            with recorder.span("store.boot"):
                service = ExplorationService(**SERVICE_ARGS, store=path)
            service.close()
    return {
        "catalog.append_ms": median(recorder, "catalog.append", MS),
        "store.append_ms": median(recorder, "store.append", MS),
        "store.load_table_ms": median(recorder, "store.load_table", MS),
        "store.put_summary_ms": median(recorder, "store.put_summary", MS),
        "store.get_summary_ms": median(recorder, "store.get_summary", MS),
        "warm.restore_ms": median(recorder, "warm.restore", MS),
        "store.boot_ms": median(recorder, "store.boot", MS),
        "store.bytes_per_user_byte": stored_bytes / user_bytes(stored),
    }


# ---------------------------------------------------------------------- #
# Runner
# ---------------------------------------------------------------------- #


class Scratch:
    """What the probes share: a scratch service, its frontend, answers."""

    def __init__(self, inputs: ProbeInputs, workdir: Path, stack: contextlib.ExitStack):
        from repro.service import ExplorationService, serve, serve_async
        from repro.service.requests import build_explore_request

        self.workdir = workdir
        self.small = capped(inputs.table)
        self.service = stack.enter_context(ExplorationService(**SERVICE_ARGS))
        self.service.register(inputs.table)
        frontend = {"serve": serve, "serve_async": serve_async}[inputs.frontend]
        self.url = stack.enter_context(frontend(self.service)).url
        self.answers = [
            self.service.handle(
                build_explore_request(
                    inputs.table.name, text, use_cache=False, fidelity=inputs.fidelity
                )
            )
            for text in inputs.queries
        ]


#: In this order: ``probe_cluster`` reads the fold time ``probe_parallel`` took.
PROBES: tuple[Callable[[SpanRecorder, ProbeInputs, Scratch], dict], ...] = (
    probe_query,
    probe_protocol,
    probe_wire,
    probe_history,
    probe_tenancy,
    probe_backends,
    probe_kernels,
    probe_parallel,
    probe_cluster,
    probe_dataset,
    probe_store,
)


def run_probes(
    recorder: SpanRecorder, inputs: ProbeInputs, workdir: Path
) -> tuple[dict[str, float], list[str]]:
    """Every probe's metrics, and a note for each probe that could not run."""
    metrics: dict[str, float] = {}
    notes: list[str] = []
    with contextlib.ExitStack() as stack:
        scratch = Scratch(inputs, workdir, stack)
        for probe in PROBES:
            try:
                metrics.update(probe(recorder, inputs, scratch))
            except (ImportError, AttributeError, TypeError, statistics.StatisticsError) as exc:
                # A refactor moved or reshaped what this probe calls.
                notes.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
    return metrics, notes
