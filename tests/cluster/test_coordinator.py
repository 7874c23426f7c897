"""The coordinator: scatter/gather builds bit-identical to local ones."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.config import Fidelity, Parallelism
from repro.datagen import split_for_streaming
from repro.engine.backends import table_fingerprint
from repro.engine.parallel import build_sharded_backend
from repro.errors import MapError
from tests.engine.test_parallel import STAGES, assert_venue_invisible

SKETCH = Fidelity.sketch(budget_rows=800)
CLUSTER = Parallelism.cluster(servers="auto", shards=8)


def sketch_state(backend) -> dict:
    """Everything statistical about a sketch backend, venue-blind."""
    return {
        "sample": table_fingerprint(backend.effective_table),
        "quantiles": {
            name: sketch.to_dict()
            for name, sketch in backend._quantile_sketches.items()
        },
        "frequencies": {
            name: sketch.to_dict()
            for name, sketch in backend._frequency_sketches.items()
        },
    }


class TestBuildBackend:
    def test_cluster_build_matches_local_build(self, table, coordinator):
        local = build_sharded_backend(
            table, SKETCH,
            Parallelism(workers=1, shards=8),
            seed=7,
        )
        clustered = coordinator.build_backend(
            table, SKETCH, CLUSTER, seed=7
        )
        assert sketch_state(clustered) == sketch_state(local)

    def test_build_is_deterministic_across_builds(self, table, coordinator):
        first = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        second = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        assert sketch_state(first) == sketch_state(second)

    def test_one_server_cluster_matches_two(self, table, servers,
                                            coordinator):
        single = ClusterCoordinator([servers[0].url], timeout=10.0)
        try:
            one = single.build_backend(table, SKETCH, CLUSTER, seed=7)
            two = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
            assert sketch_state(one) == sketch_state(two)
        finally:
            single.close()

    def test_budget_covering_table_skips_sampling(self, table, coordinator):
        generous = Fidelity.sketch(budget_rows=table.n_rows)
        backend = coordinator.build_backend(table, generous, CLUSTER, seed=7)
        assert backend.effective_table is table

    def test_exact_fidelity_rejected(self, table, coordinator):
        with pytest.raises(MapError, match="sketch fidelity"):
            coordinator.build_backend(
                table, Fidelity.exact(), CLUSTER, seed=7
            )

    def test_snapshot_carries_cluster_provenance(self, table, coordinator):
        backend = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        parallel = backend.snapshot()["parallel"]
        assert parallel["servers"] == 2
        assert parallel["cluster_builds"] == 1
        assert len(parallel["shard_servers"]) == 8
        assert sorted(set(parallel["shard_servers"])) == [0, 1]


class TestVenueInvisibility:
    @pytest.mark.parametrize("stage", STAGES)
    def test_cluster_matches_inline(self, table, coordinator, stage):
        assert_venue_invisible(table, coordinator, stage, SKETCH, CLUSTER)


class TestReattach:
    def test_new_coordinator_reuses_pushed_state(self, table, servers,
                                                 coordinator):
        first = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        # The shard state a restarted coordinator's scans hit.
        owned_before = [
            {key: value for key, value in server.store._shards.items()}
            for server in servers
        ]
        restarted = ClusterCoordinator(
            [s.url for s in servers], timeout=10.0
        )
        try:
            second = restarted.build_backend(table, SKETCH, CLUSTER, seed=7)
            assert sketch_state(second) == sketch_state(first)
            # No re-push happened: the owned state objects are the same.
            for server, before in zip(servers, owned_before):
                assert server.store._shards == before
                assert all(
                    server.store._shards[key] is owned
                    for key, owned in before.items()
                )
            assert restarted.metrics()["shard_retries"] == 0
        finally:
            restarted.close()


class TestStreaming:
    def test_advance_leaves_server_shard_state_untouched(
        self, table, servers, coordinator
    ):
        # Appends are maintained locally; the servers keep exactly the
        # shards the build pushed until a later build finds them stale.
        from repro.service.transport import HttpTransport

        initial, batches = split_for_streaming(table, 3)
        backend = coordinator.build_backend(initial, SKETCH, CLUSTER, seed=7)
        transports = [HttpTransport(s.url, timeout=10.0) for s in servers]
        try:
            before = [t.request("GET", "/shards") for t in transports]
            current = initial
            for batch in batches:
                current = current.append(batch)
                backend = backend.advance(current)
            after = [t.request("GET", "/shards") for t in transports]
        finally:
            for transport in transports:
                transport.close()
        assert backend.version == current.version == 3
        assert after == before
        assert sum(len(listing["shards"]) for listing in before) == 8


class TestResolvedServers:
    def test_auto_uses_every_attached_server(self, coordinator):
        assert coordinator.resolved_servers(Parallelism.cluster()) == 2

    def test_numeric_clamps_to_attached(self, coordinator):
        assert coordinator.resolved_servers(Parallelism.cluster(1)) == 1
        assert coordinator.resolved_servers(Parallelism.cluster(9)) == 2

    def test_needs_at_least_one_url(self):
        with pytest.raises(MapError):
            ClusterCoordinator([])


class TestMetrics:
    def test_builds_and_per_server_payloads(self, table, coordinator):
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        metrics = coordinator.metrics()
        assert metrics["servers"] == 2
        assert metrics["builds"] == 1
        per_server = metrics["shard_servers"]
        assert len(per_server) == 2
        assert sum(entry["scans"] for entry in per_server) == 8

    def test_health_in_server_order(self, coordinator):
        payloads = coordinator.health()
        assert [p["status"] for p in payloads] == ["ok", "ok"]


class TestHops:
    """One ``/scan`` per server per build, pinned by counting the
    coordinator's calls and the servers' own metrics."""

    @pytest.fixture
    def hops(self, coordinator, monkeypatch):
        """Every (server, path, outcome) the coordinator sends."""
        from repro.service.protocol import StaleShardError

        calls: list[tuple[int, str, str]] = []
        for server, transport in enumerate(coordinator._transports):
            real = transport.request

            def request(method, path, payload=None, server=server,
                        real=real, **kwargs):
                try:
                    answer = real(method, path, payload, **kwargs)
                except StaleShardError:
                    calls.append((server, path, "409"))
                    raise
                calls.append((server, path, "ok"))
                return answer

            monkeypatch.setattr(transport, "request", request)
        return calls

    def test_first_build_is_one_409_one_push_per_shard_one_rescan(
        self, table, coordinator, hops
    ):
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        for server in (0, 1):
            assert [
                (path, outcome) for s, path, outcome in hops if s == server
            ] == [
                ("/scan", "409"),
                *[("/own", "ok")] * 4,
                ("/scan", "ok"),
            ]
        assert coordinator.metrics()["shard_retries"] == 0

    def test_steady_state_build_is_one_scan_per_server(
        self, table, servers, coordinator, hops
    ):
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        before = [s.store.metrics() for s in servers]
        hops.clear()
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=8)
        assert sorted(hops) == [(0, "/scan", "ok"), (1, "/scan", "ok")]
        for server, old in zip(servers, before):
            new = server.store.metrics()
            assert new["scan_requests"] - old["scan_requests"] == 1
            assert new["scans"] - old["scans"] == 4

    def test_build_after_append_pushes_each_shard_once(
        self, table, coordinator, hops
    ):
        initial, batches = split_for_streaming(table, 2)
        coordinator.build_backend(initial, SKETCH, CLUSTER, seed=7)
        hops.clear()
        coordinator.build_backend(
            initial.append(batches[0]), SKETCH, CLUSTER, seed=7
        )
        for server in (0, 1):
            paths = [path for s, path, _ in hops if s == server]
            assert paths == ["/scan", "/own", "/own", "/own", "/own", "/scan"]
        assert coordinator.metrics()["shard_retries"] == 0

    def test_partly_stale_batch_pushes_only_the_stale_shard(
        self, table, servers, coordinator, hops
    ):
        reference = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        with servers[0].store._lock:
            del servers[0].store._shards[(table.name, 1)]
        hops.clear()
        rebuilt = coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        per_server = {
            server: [(path, outcome) for s, path, outcome in hops
                     if s == server]
            for server in (0, 1)
        }
        assert per_server == {
            0: [("/scan", "409"), ("/own", "ok"), ("/scan", "ok")],
            1: [("/scan", "ok")],
        }
        owned = [s["shard"] for s in servers[0].store.describe()["shards"]]
        assert owned == [0, 1, 2, 3]
        assert sketch_state(rebuilt) == sketch_state(reference)
