"""Cluster failure modes: dead shards, slow shards, stale state."""

from __future__ import annotations

import base64
import socket

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, serve_shard
from repro.core.config import Fidelity, Parallelism
from repro.datagen import split_for_streaming
from repro.service.protocol import (
    ShardUnavailableError,
    error_from_payload,
    error_to_dict,
)

SKETCH = Fidelity.sketch(budget_rows=500)
CLUSTER = Parallelism.cluster(servers="auto", shards=8)


class TestKilledShard:
    def test_dead_server_raises_typed_503_naming_the_shard(
        self, table, servers, coordinator
    ):
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        servers[1].close()  # shards 4..7 now have no server
        with pytest.raises(ShardUnavailableError) as err:
            coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        assert err.value.status == 503
        message = str(err.value)
        assert "shard 4" in message or "shard" in message
        assert table.name in message
        assert servers[1].url in message
        assert "failed twice" in message

    def test_shard_unavailable_round_trips_as_503(self):
        error = ShardUnavailableError("shard 3 of 'census' is unavailable")
        payload = error_to_dict(error)
        assert payload["error"]["status"] == 503
        assert payload["error"]["code"] == "shard_unavailable"
        revived = error_from_payload(payload, payload["error"]["status"])
        assert isinstance(revived, ShardUnavailableError)

    def test_failed_build_counts_its_retry(self, table, servers,
                                           coordinator):
        servers[0].close()
        with pytest.raises(ShardUnavailableError):
            coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        assert coordinator.metrics()["shard_retries"] >= 1


class TestMalformedAnswer:
    """A /scan answer whose statistics do not decode is the shard's
    failure (retry once, then 503), never the client's 400."""

    def corrupt_scans(self, monkeypatch, coordinator, server, times):
        transport = coordinator._transports[server]
        real = transport.request
        corrupted = []

        def request(method, path, payload=None, **kwargs):
            answer = real(method, path, payload, **kwargs)
            if path == "/scan" and len(corrupted) < times:
                first = answer["statistics"][0]
                corrupted.append(first["index"])
                gk = first["quantiles"]["Age"]
                values = np.frombuffer(
                    base64.b64decode(gk["values"]), dtype="<f8"
                ).copy()
                values[0] = np.nan
                gk["values"] = base64.b64encode(values.tobytes()).decode()
            return answer

        monkeypatch.setattr(transport, "request", request)
        return corrupted

    def test_bad_payload_twice_raises_typed_503_naming_the_shard(
        self, table, coordinator, monkeypatch
    ):
        corrupted = self.corrupt_scans(
            monkeypatch, coordinator, server=1, times=2
        )
        with pytest.raises(ShardUnavailableError) as err:
            coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        assert err.value.status == 503
        assert error_to_dict(err.value)["error"]["code"] == (
            "shard_unavailable"
        )
        assert corrupted == [4, 4]  # shard 4 opens server 1's block
        message = str(err.value)
        # The failed batch names every shard it carried.
        for shard, (low, high) in zip(
            range(4, 8), [(1500, 1875), (1875, 2250), (2250, 2625),
                          (2625, 3000)]
        ):
            assert f"shard {shard} (rows [{low}, {high}))" in message
        assert f"of table {table.name!r}" in message
        assert coordinator.urls[1] in message
        assert "failed twice" in message
        assert "NaN" in message

    def test_one_bad_payload_is_retried_to_the_same_answer(
        self, table, coordinator, monkeypatch
    ):
        clean = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        self.corrupt_scans(monkeypatch, coordinator, server=0, times=1)
        retried = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        assert retried.snapshot()["parallel"]["shard_retries"] == 1
        assert retried.export_state().quantiles["Age"].to_dict() == (
            clean.export_state().quantiles["Age"].to_dict()
        )


class TestSlowShard:
    def test_unresponsive_server_times_out_per_shard(self, table):
        # A listener that accepts connections but never answers — the
        # canonical stuck shard.  The per-request timeout (not a whole
        # build deadline) must cut it off, and a timed-out request must
        # NOT be transport-retried (it may have reached the server), so
        # the coordinator's single retry is the only second attempt.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        slow_url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        with serve_shard() as healthy:
            coordinator = ClusterCoordinator(
                [healthy.url, slow_url], timeout=0.5
            )
            try:
                with pytest.raises(ShardUnavailableError) as err:
                    coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
                assert "timed out" in str(err.value)
                assert slow_url in str(err.value)
            finally:
                coordinator.close()
                listener.close()


class TestStreaming:
    def test_advance_succeeds_with_the_owning_server_dead(
        self, table, servers, coordinator
    ):
        initial, batches = split_for_streaming(table, 3)
        backend = coordinator.build_backend(initial, SKETCH, CLUSTER, seed=7)
        backend.quantile_sketch("Age")
        servers[backend.shard_servers[-1]].close()
        new_table = initial.append(batches[0])
        backend = backend.advance(new_table)  # local maintenance, no server call
        assert backend.version == new_table.version
        assert backend.quantile_sketch("Age").count == new_table.n_rows
        assert backend.snapshot()["parallel"]["shards"] == 8

    def test_stale_server_state_self_heals_on_next_build(
        self, table, servers, coordinator
    ):
        reference = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        # Simulate a shard-server restart: all owned state gone.
        for server in servers:
            with server.store._lock:
                server.store._shards.clear()
        rebuilt = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        from tests.cluster.test_coordinator import sketch_state

        assert sketch_state(rebuilt) == sketch_state(reference)
        assert coordinator.metrics()["shard_retries"] == 0  # 409s, not 503s
