"""Cluster quickstart: shard servers, a coordinator, identical answers.

Spawns two shard-server processes (the same ``python -m repro.cluster``
entry point a real deployment runs per machine), attaches them as the
process's active cluster, and explores the census table three ways —
serial, local scan/merge, and scattered over the cluster — asserting
the answers are bit-identical before and after streamed appends, and
that a fresh cluster build at the final version matches a fresh serial
one.  A last, steady-state build must cost one ``/scan`` per server.

This is also the CI smoke test for the cluster subsystem.

Run:  PYTHONPATH=src python examples/cluster_quickstart.py
"""

from repro.cluster import attach_cluster, detach_cluster, spawn_local_cluster
from repro.core.config import Parallelism
from repro.datagen import census_table, split_for_streaming
from repro.engine.facade import explorer
from repro.evaluation import map_set_fingerprint

QUERY = "Age: [17, 90]\nSex: any"

# ---------------------------------------------------------------- #
# 1. Start two shard servers and attach them.
# ---------------------------------------------------------------- #
servers = spawn_local_cluster(2)
try:
    coordinator = attach_cluster([server.url for server in servers])
    print(f"cluster: {', '.join(coordinator.urls)}")

    table = census_table(n_rows=50_000, seed=0)
    initial, batches = split_for_streaming(table, n_batches=3)

    # ------------------------------------------------------------ #
    # 2. One exploration, three venues.  The shard layout — not the
    #    venue — is the statistical recipe, so all three answers are
    #    bit-identical.
    # ------------------------------------------------------------ #
    venues = {
        "serial ": explorer(initial).approximate(10_000).seed(0)
        .configure(parallelism=Parallelism(workers=1, shards=8)),
        "local  ": explorer(initial).approximate(10_000).seed(0)
        .parallel(2),
        "cluster": explorer(initial).approximate(10_000).seed(0)
        .cluster(),
    }
    prints = {}
    for name, session in venues.items():
        maps = session.explore(QUERY)
        prints[name] = map_set_fingerprint(maps)
        print(f"  {name}: {len(maps)} map(s), "
              f"fingerprint {prints[name][:16]}…")
    assert len(set(prints.values())) == 1, prints
    print("all three venues bit-identical ✓")

    # ------------------------------------------------------------ #
    # 3. Stream appends.  Every session maintains its statistics
    #    locally (no shard server is contacted); answers stay
    #    identical at every version.
    # ------------------------------------------------------------ #
    for batch in batches:
        for session in venues.values():
            session.append(batch)
        versions = {
            name: map_set_fingerprint(session.explore(QUERY))
            for name, session in venues.items()
        }
        assert len(set(versions.values())) == 1, versions
        rows = next(iter(venues.values())).table.n_rows
        print(f"  appended -> {rows} rows, still identical ✓")

    # ------------------------------------------------------------ #
    # 4. A fresh cluster build at the final version.  The grown table
    #    shards anew, so every server answers 409 once and receives
    #    its shards again; the answer matches a fresh serial build.
    # ------------------------------------------------------------ #
    final = venues["serial "].table
    fresh = {
        "serial ": explorer(final).approximate(10_000).seed(0)
        .configure(parallelism=Parallelism(workers=1, shards=8)),
        "cluster": explorer(final).approximate(10_000).seed(0).cluster(),
    }
    fresh_prints = {
        name: map_set_fingerprint(session.explore(QUERY))
        for name, session in fresh.items()
    }
    assert len(set(fresh_prints.values())) == 1, fresh_prints
    assert coordinator.metrics()["shard_retries"] == 0
    print(f"  fresh build at {final.n_rows} rows: cluster == serial ✓")

    # ------------------------------------------------------------ #
    # 5. A steady-state build: every shard is already placed, so each
    #    server gets exactly one /scan listing all of its shards.
    # ------------------------------------------------------------ #
    def scan_requests():
        return [entry["scan_requests"]
                for entry in coordinator.metrics()["shard_servers"]]

    before = scan_requests()
    explorer(final).approximate(10_000).seed(1).cluster().explore(QUERY)
    hops = [after - old for after, old in zip(scan_requests(), before)]
    assert hops == [1] * len(servers), hops
    print(f"  steady-state build: {hops} /scan request(s) per server ✓")

    # ------------------------------------------------------------ #
    # 6. What the cluster did.
    # ------------------------------------------------------------ #
    metrics = coordinator.metrics()
    print(f"cluster builds: {metrics['builds']}, "
          f"shard retries: {metrics['shard_retries']}")
    for entry in metrics["shard_servers"]:
        print(f"  {entry['url']}: {entry['scan_requests']} /scan "
              f"request(s), {entry['scans']} shard scan(s), "
              f"{entry['rows_owned']} row(s) owned")
finally:
    detach_cluster()
    for server in servers:
        server.terminate()
print("done.")
