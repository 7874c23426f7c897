"""The shard server: store semantics and the HTTP frontend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
    ShardStore,
    serve_shard,
)
from repro.cluster.protocol import decode_scan_answer
from repro.datagen import census_table
from repro.engine.backends import table_fingerprint
from repro.engine.parallel import (
    ShardedTable,
    _sketch_attributes,
    scan_shard_values,
    shard_column_values,
)
from repro.service.protocol import ProtocolError, StaleShardError
from repro.service.transport import HttpTransport
from tests.engine.test_parallel import _statistics as comparable


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
        numeric=numeric_values,
        categorical=categorical_values,
    )


def scan_request(table, sharded, *shards: int, **overrides) -> ScanRequest:
    fields = dict(
        table=table.name, version=table.version,
        fingerprint=table_fingerprint(table),
        seed=7, budget_rows=400, sample_rows=True, epsilon=0.005,
        shards=tuple(
            (shard, *sharded.bounds[shard]) for shard in shards
        ),
    )
    fields.update(overrides)
    return ScanRequest(**fields)


class TestShardStore:
    def test_scan_before_own_is_stale(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        with pytest.raises(StaleShardError, match="not owned") as err:
            store.scan(scan_request(table, sharded, 0))
        assert err.value.detail == {"stale": [0]}

    def test_owned_scan_matches_local_scan_core(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 1))
        request = scan_request(table, sharded, 1)
        (remote,) = store.scan(request)

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

    def test_batch_names_every_stale_shard_and_scans_none(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        for shard in (0, 2):
            store.own(own_request(table, sharded, shard))
        with pytest.raises(StaleShardError) as err:
            store.scan(scan_request(table, sharded, 0, 1, 2, 3))
        assert err.value.detail == {"stale": [1, 3]}
        assert store.metrics()["scans"] == 0
        assert store.metrics()["scan_requests"] == 1

    def test_batch_answers_in_request_order(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        for shard in range(4):
            store.own(own_request(table, sharded, shard))
        batch = store.scan(scan_request(table, sharded, 1, 2, 3))
        assert [stat.provenance["shard"] for stat in batch] == [1, 2, 3]
        for stat in batch:
            (alone,) = store.scan(
                scan_request(table, sharded, stat.provenance["shard"])
            )
            assert comparable(stat) == comparable(alone)

    def test_scan_naming_other_bounds_is_stale(self, table):
        store = ShardStore()
        sharded = ShardedTable(table, 4)
        store.own(own_request(table, sharded, 0))
        low, high = sharded.bounds[0]
        with pytest.raises(StaleShardError, match="re-push"):
            store.scan(scan_request(
                table, sharded, shards=((0, low, high + 1),)
            ))

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
        store.own(own_request(table, sharded, 1))
        for _ in range(5):
            store.scan(scan_request(table, sharded, 0, 1))
        metrics = store.metrics()
        assert metrics["scan_requests"] == 5
        assert metrics["scans"] == 10
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
            request = scan_request(table, sharded, 2)
            payload = transport.request("POST", "/scan", request.to_dict())
            (over_wire,) = decode_scan_answer(payload, request.shards)
            (direct,) = server.store.scan(request)
            assert comparable(over_wire) == comparable(direct)

            shards = transport.request("GET", "/shards")["shards"]
            assert [s["shard"] for s in shards] == [2]
            metrics = transport.request("GET", "/metrics")
            assert metrics["shards_owned"] == 1
            assert metrics["scan_requests"] == 2
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


def _b64(array) -> str:
    import base64

    return base64.b64encode(array.tobytes()).decode("ascii")


@pytest.fixture(scope="module")
def wire():
    """A live shard server and a transport to it."""
    with serve_shard() as server:
        transport = HttpTransport(server.url, timeout=10.0)
        yield server, transport
        transport.close()


#: A valid /scan body for shard 0 = rows [0, 10) of table 't', version 1.
SCAN_BODY = {
    "table": "t", "version": 1, "fingerprint": 0, "seed": 0,
    "budget_rows": 5, "sample_rows": True, "epsilon": 0.1,
    "shards": [[0, 0, 10]],
}


def own_body(**overrides) -> dict:
    """A valid /own body for shard 0 = rows [0, 10) of table 't'."""
    body = {
        "table": "t", "shard": 0, "low": 0, "high": 10, "version": 1,
        "numeric": {"x": _b64(np.arange(10, dtype="<f8"))},
        "categorical": [
            ["c", 2, _b64(np.array([0, 1, -1] * 3 + [0], dtype="<i4")),
             ["a", "b"]],
        ],
    }
    body.update(overrides)
    return body


class TestOwnValidation:
    """/own rejects data that does not match the shard it names as a
    typed 400 naming the table, shard and column — and owns nothing."""

    def assert_rejected(self, wire, body, *names):
        server, transport = wire
        with server.store._lock:
            server.store._shards.clear()
        with pytest.raises(ProtocolError) as err:
            transport.request("POST", "/own", body)
        assert err.value.status == 400
        for name in ("'t'", "shard 0", *names):
            assert name in str(err.value)
        assert server.store.describe() == {"shards": []}
        # Nothing was owned, so the next scan is stale, never a 200
        # over wrong data.
        with pytest.raises(StaleShardError):
            transport.request("POST", "/scan", SCAN_BODY)

    def test_valid_push_is_owned_and_scans(self, wire):
        server, transport = wire
        transport.request("POST", "/own", own_body())
        answer = transport.request("POST", "/scan", SCAN_BODY)
        (stat,) = decode_scan_answer(answer, ((0, 0, 10),))
        assert stat.quantiles["x"].count == 10
        assert stat.frequencies["c"].count == 7
        assert len(stat.sample) == 5

    def test_short_numeric_buffer(self, wire):
        body = own_body(numeric={"x": _b64(np.arange(3, dtype="<f8"))})
        self.assert_rejected(wire, body, "'x'", "3 values for 10 rows")

    def test_short_code_buffer(self, wire):
        body = own_body()
        body["categorical"][0][2] = _b64(np.zeros(11, dtype="<i4"))
        self.assert_rejected(wire, body, "'c'", "11 values for 10 rows")

    def test_float_list_numeric_entry(self, wire):
        body = own_body(numeric={"x": [float(v) for v in range(10)]})
        self.assert_rejected(wire, body, "'x'", "base64 string")

    def test_bad_base64(self, wire):
        self.assert_rejected(
            wire, own_body(numeric={"x": "not base64!"}), "'x'", "base64"
        )

    def test_partial_item(self, wire):
        raw = np.arange(10, dtype="<f8").tobytes()[:-3]
        import base64

        body = own_body(numeric={"x": base64.b64encode(raw).decode()})
        self.assert_rejected(wire, body, "'x'", "whole number")

    def test_two_element_categorical_entry(self, wire):
        body = own_body(categorical=[["c", ["a", "b"]]])
        self.assert_rejected(wire, body, "categorical entry")

    @pytest.mark.parametrize("capacity", [0, -1, 1.5, True])
    def test_capacity_below_one(self, wire, capacity):
        body = own_body()
        body["categorical"][0][1] = capacity
        self.assert_rejected(wire, body, "'c'", "capacity")

    @pytest.mark.parametrize("code", [2, -2])
    def test_codes_outside_the_dictionary(self, wire, code):
        body = own_body()
        body["categorical"][0][2] = _b64(
            np.array([0] * 9 + [code], dtype="<i4")
        )
        self.assert_rejected(wire, body, "'c'", "outside [-1, 2)")

    def test_duplicate_dictionary_labels(self, wire):
        body = own_body()
        body["categorical"][0][3] = ["a", "a"]
        self.assert_rejected(wire, body, "'c'", "distinct")

    def test_negative_row_range(self, wire):
        self.assert_rejected(wire, own_body(low=11), "negative")


class TestScanValidation:
    """/scan rejects a recipe no build could send as a typed 400."""

    @pytest.mark.parametrize("field, value, match", [
        ("budget_rows", -3, "budget_rows must be >= 1"),
        ("budget_rows", 0, "budget_rows must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("epsilon", 0.0, "epsilon must be in"),
        ("epsilon", 1.0, "epsilon must be in"),
        ("epsilon", -0.5, "epsilon must be in"),
        ("shards", [], "one or more shards"),
        ("shards", [[0, 0, 10], [0, 0, 10]], "ascending"),
        ("shards", [[1, 10, 20], [0, 0, 10]], "ascending"),
        ("shards", [[0, 10, 0]], "row range"),
        ("shards", [[0, 0]], "index, low, high"),
        ("sample_rows", 1, "'sample_rows' must be bool"),
        ("seed", "7", "'seed' must be int"),
    ])
    def test_rejected_at_decode(self, wire, field, value, match):
        _, transport = wire
        body = dict(SCAN_BODY, **{field: value})
        with pytest.raises(ProtocolError, match=match) as err:
            transport.request("POST", "/scan", body)
        assert err.value.status == 400

    def test_non_object_body(self, wire):
        _, transport = wire
        with pytest.raises(ProtocolError, match="JSON object") as err:
            transport.request("POST", "/scan", [1, 2, 3])
        assert err.value.status == 400


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
