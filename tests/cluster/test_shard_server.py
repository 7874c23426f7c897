"""The shard server: store semantics and the HTTP frontend."""

from __future__ import annotations

import pytest

from repro.cluster import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
    ShardStore,
    serve_shard,
)
from repro.cluster.protocol import numeric_to_wire
from repro.datagen import census_table
from repro.engine.backends import table_fingerprint
from repro.engine.parallel import (
    ShardedTable,
    ShardStatistics,
    _sketch_attributes,
    scan_shard_values,
    shard_column_values,
)
from repro.service.protocol import ProtocolError, StaleShardError
from repro.service.transport import HttpTransport


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=1200, seed=3)


def own_request(table, sharded, shard: int) -> OwnShardRequest:
    """The push the coordinator would send for one shard."""
    numeric, categorical = _sketch_attributes(table)
    low, high = sharded.bounds[shard]
    numeric_values, categorical_values = shard_column_values(
        table, low, high, numeric, categorical
    )
    return OwnShardRequest(
        table=table.name, shard=shard, low=low, high=high,
        version=table.version,
        numeric=numeric_to_wire(numeric_values),
        categorical=[
            (name, capacity, labels)
            for name, capacity, labels in categorical_values
        ],
    )


def scan_request(table, sharded, shard: int, **overrides) -> ScanRequest:
    low, high = sharded.bounds[shard]
    fields = dict(
        table=table.name, shard=shard, low=low, high=high,
        version=table.version, fingerprint=table_fingerprint(table),
        seed=7, budget_rows=400, sample_rows=True, epsilon=0.005,
    )
    fields.update(overrides)
    return ScanRequest(**fields)


def comparable(statistics: ShardStatistics) -> dict:
    """Everything deterministic about a scan (timing dropped)."""
    out = statistics.to_dict()
    out.pop("seconds")
    out.pop("kernel_nanos")
    return out


class TestShardStore:
    def test_scan_before_own_is_stale(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        with pytest.raises(StaleShardError, match="not owned"):
            store.scan(scan_request(table, sharded, 0))

    def test_owned_scan_matches_local_scan_core(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 1))
        request = scan_request(table, sharded, 1)
        remote = store.scan(request)

        numeric, categorical = _sketch_attributes(table)
        low, high = sharded.bounds[1]
        numeric_values, categorical_values = shard_column_values(
            table, low, high, numeric, categorical
        )
        local = scan_shard_values(
            index=1, low=low, n_rows=high - low,
            seed=request.seed, fingerprint=request.fingerprint,
            budget_rows=request.budget_rows, sample_rows=True,
            epsilon=request.epsilon,
            numeric=numeric_values, categorical=categorical_values,
        )
        assert comparable(remote) == comparable(local)

    def test_scan_naming_other_version_is_stale(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 0))
        with pytest.raises(StaleShardError, match="re-push"):
            store.scan(
                scan_request(table, sharded, 0, version=table.version + 1)
            )

    def test_scan_naming_other_bounds_is_stale(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 0))
        low, high = sharded.bounds[0]
        with pytest.raises(StaleShardError, match="re-push"):
            store.scan(scan_request(table, sharded, 0, high=high + 1))

    def test_negative_range_rejected(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        request = own_request(table, sharded, 0)
        import dataclasses

        bad = dataclasses.replace(request, high=request.low - 1)
        with pytest.raises(ProtocolError, match="negative"):
            store.own(bad)

    def test_metrics_do_not_grow_with_the_scan_count(self, table):
        # One float per scan, kept forever and serialized whole on every
        # GET /metrics, was a leak: the payload is scalars only.
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 0))
        for _ in range(5):
            store.scan(scan_request(table, sharded, 0))
        metrics = store.metrics()
        assert metrics["scans"] == 5
        assert metrics["scan_seconds_total"] > 0.0
        assert all(
            isinstance(value, (int, float)) for value in metrics.values()
        )


class TestShardHTTP:
    def test_health_reports_protocol_version(self):
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            payload = transport.request("GET", "/health")
            assert payload == {
                "status": "ok", "protocol": CLUSTER_PROTOCOL_VERSION,
            }
            transport.close()

    def test_own_scan_and_metrics_over_http(self, table):
        sharded = ShardedTable(table, 4)
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            transport.request(
                "POST", "/own", own_request(table, sharded, 2).to_dict()
            )
            payload = transport.request(
                "POST", "/scan", scan_request(table, sharded, 2).to_dict()
            )
            over_wire = ShardStatistics.from_dict(payload["statistics"])
            direct = server.store.scan(scan_request(table, sharded, 2))
            assert comparable(over_wire) == comparable(direct)

            shards = transport.request("GET", "/shards")["shards"]
            assert [s["shard"] for s in shards] == [2]
            metrics = transport.request("GET", "/metrics")
            assert metrics["shards_owned"] == 1
            assert metrics["scans"] == 2
            assert metrics["scan_seconds_total"] > 0.0
            transport.close()

    def test_unknown_route_is_a_typed_error(self):
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            with pytest.raises(ProtocolError, match="no route"):
                transport.request("GET", "/nope")
            transport.close()

    def test_append_is_not_a_shard_route(self, table):
        # Appends never reach a shard server: the next build over the
        # grown table re-pushes stale shards through /own instead.
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            with pytest.raises(ProtocolError, match="no route") as err:
                transport.request(
                    "POST", "/append",
                    {"table": table.name, "shard": 0},
                )
            assert err.value.status == 400
            transport.close()

    def test_missing_body_is_a_typed_error(self):
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            with pytest.raises(ProtocolError, match="body"):
                transport.request("POST", "/scan")
            transport.close()

    def test_stale_scan_surfaces_as_409_over_http(self, table):
        sharded = ShardedTable(table, 4)
        with serve_shard() as server:
            transport = HttpTransport(server.url, timeout=10.0)
            with pytest.raises(StaleShardError) as err:
                transport.request(
                    "POST", "/scan",
                    scan_request(table, sharded, 0).to_dict(),
                )
            assert err.value.status == 409
            transport.close()

    def test_access_log_has_the_core_fields_and_no_tenant(self, caplog):
        import json
        import logging

        from repro.cluster import ShardServer

        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            with ShardServer(quiet=False) as server:
                transport = HttpTransport(server.url, timeout=10.0)
                transport.request("GET", "/shards")
                transport.close()
        (record,) = [json.loads(r.getMessage()) for r in caplog.records]
        assert sorted(record) == [
            "bytes", "elapsed_ms", "method", "path", "status", "ts",
        ]
        assert (record["method"], record["path"]) == ("GET", "/shards")
        assert record["status"] == 200


class TestShardProcess:
    """``python -m repro.cluster`` as a real subprocess."""

    def test_prints_url_answers_health_and_exits_on_sigterm(self):
        import signal
        import time

        from repro.cluster import spawn_shard_server

        process = spawn_shard_server()
        try:
            transport = HttpTransport(process.url, timeout=10.0)
            assert transport.request("GET", "/health")["status"] == "ok"
            # Leave the keep-alive socket open: an idle connection must
            # not hold the server past SIGTERM.
            started = time.monotonic()
            process.terminate(timeout=5.0)
            assert time.monotonic() - started < 5.0
            assert not process.alive()
            # SIGTERM ended it; terminate() never escalated to SIGKILL.
            assert process._process.returncode == -signal.SIGTERM
            transport.close()
        finally:
            process.kill()

    def test_verbose_logs_one_json_line_per_request(self):
        import json
        import os
        import subprocess
        import sys

        from repro.cluster.launch import URL_PREFIX, _repro_pythonpath

        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cluster", "--port", "0", "--verbose"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": _repro_pythonpath()},
        )
        try:
            url = process.stdout.readline().strip()[len(URL_PREFIX):]
            transport = HttpTransport(url, timeout=10.0)
            transport.request("GET", "/health")
            with pytest.raises(ProtocolError):
                transport.request("GET", "/nope")
            # A record is written after its response; one more round
            # trip on the same connection orders it before SIGTERM.
            transport.request("GET", "/health")
            transport.close()
        finally:
            process.terminate()
            _, stderr = process.communicate(timeout=10)
        records = [json.loads(line) for line in stderr.splitlines()]
        assert [(r["path"], r["status"]) for r in records[:2]] == [
            ("/health", 200), ("/nope", 404),
        ]
