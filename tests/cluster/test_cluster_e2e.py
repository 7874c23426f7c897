"""End-to-end: cluster answers are bit-identical to serial answers.

The E20 guard extended across the wire — the same exploration, answered
by the serial path, the local scan/merge split, and a cluster of shard
servers, must produce identical ``map_set_fingerprint`` values, before
and after streamed appends.
"""

from __future__ import annotations

import pytest

from repro.cluster import attach_cluster, detach_cluster, spawn_local_cluster
from repro.core.config import Parallelism
from repro.datagen import census_table, split_for_streaming
from repro.engine.facade import explorer
from repro.evaluation import map_set_fingerprint
from repro.evaluation.workloads import FIGURE2_QUERY_TEXT

BUDGET = 800


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=2500, seed=9)


def fingerprints(table, query=FIGURE2_QUERY_TEXT) -> dict:
    """One exploration under each venue; clusters must be attached."""
    out = {}
    for name, configured in {
        "serial-sharded": explorer(table).approximate(BUDGET).seed(4)
        .configure(parallelism=Parallelism(workers=1, shards=8)),
        "cluster": explorer(table).approximate(BUDGET).seed(4).cluster(),
    }.items():
        out[name] = map_set_fingerprint(configured.explore(query))
    return out


class TestInProcessCluster:
    def test_cluster_explore_matches_local(self, table, coordinator):
        attach_cluster(coordinator)
        prints = fingerprints(table)
        assert prints["cluster"] == prints["serial-sharded"]
        assert coordinator.metrics()["builds"] == 1

    def test_detached_cluster_config_degrades_to_local(self, table):
        detach_cluster()
        local = (
            explorer(table).approximate(BUDGET).seed(4).cluster()
            .explore(FIGURE2_QUERY_TEXT)
        )
        sharded = (
            explorer(table).approximate(BUDGET).seed(4)
            .configure(parallelism=Parallelism(workers=1, shards=8))
            .explore(FIGURE2_QUERY_TEXT)
        )
        assert map_set_fingerprint(local) == map_set_fingerprint(sharded)

    def test_streamed_appends_stay_identical(self, table, coordinator):
        attach_cluster(coordinator)
        initial, batches = split_for_streaming(table, 3)
        local = (
            explorer(initial).approximate(BUDGET).seed(4)
            .configure(parallelism=Parallelism(workers=1, shards=8))
        )
        clustered = explorer(initial).approximate(BUDGET).seed(4).cluster()
        assert map_set_fingerprint(
            local.explore(FIGURE2_QUERY_TEXT)
        ) == map_set_fingerprint(clustered.explore(FIGURE2_QUERY_TEXT))
        for batch in batches:
            local.append(batch)
            clustered.append(batch)
            assert map_set_fingerprint(
                local.explore(FIGURE2_QUERY_TEXT)
            ) == map_set_fingerprint(clustered.explore(FIGURE2_QUERY_TEXT))

    def test_fresh_build_after_routed_appends(self, table, servers,
                                              coordinator):
        """Routed appends leave servers scannable at the new version."""
        attach_cluster(coordinator)
        initial, batches = split_for_streaming(table, 2)
        clustered = explorer(initial).approximate(BUDGET).seed(4).cluster()
        clustered.explore(FIGURE2_QUERY_TEXT)
        clustered.append(batches[0])
        grown = clustered.table
        # A brand-new exploration at the appended version: its scans
        # must succeed against the routed server state with no 409s.
        fresh = (
            explorer(grown).approximate(BUDGET).seed(4).cluster()
            .explore(FIGURE2_QUERY_TEXT)
        )
        local = (
            explorer(grown).approximate(BUDGET).seed(4)
            .configure(parallelism=Parallelism(workers=1, shards=8))
            .explore(FIGURE2_QUERY_TEXT)
        )
        assert map_set_fingerprint(fresh) == map_set_fingerprint(local)


class TestSubprocessCluster:
    def test_real_server_processes_are_bit_identical(self, table):
        """The deployment shape: ``python -m repro.cluster`` per server."""
        processes = spawn_local_cluster(2)
        try:
            coordinator = attach_cluster(
                [p.url for p in processes], timeout=30.0
            )
            prints = fingerprints(table)
            assert prints["cluster"] == prints["serial-sharded"]
            assert all(p.alive() for p in processes)
            assert coordinator.metrics()["builds"] == 1
        finally:
            detach_cluster()
            for process in processes:
                process.terminate()
