"""Service quickstart: one exploration server, two concurrent clients.

Boots the HTTP exploration service in-process, registers a census table
(plus a second, wire-registered one), and drives two client threads at
it — showing shared statistics, the result cache kicking in across
*different* clients, admission-control limits, and the /metrics
snapshot.

This is also the CI smoke test for the service subsystem.

Run:  PYTHONPATH=src python examples/service_quickstart.py
"""

from concurrent.futures import ThreadPoolExecutor

from repro.datagen import census_table
from repro.service import ExplorationService, ServiceClient, serve

# ---------------------------------------------------------------- #
# 1. Boot a service and register a table.
# ---------------------------------------------------------------- #
service = ExplorationService(max_workers=4, max_queue_depth=8)
service.register(census_table(n_rows=20_000, seed=0))

with serve(service) as server:
    print(f"service listening at {server.url}")

    # ------------------------------------------------------------ #
    # 2. A client checks in and registers a second table over HTTP.
    # ------------------------------------------------------------ #
    client = ServiceClient(server.url)
    print("health:", client.health())
    client.register_table("census", n_rows=5_000, seed=7, name="census_b")
    print("tables:", ", ".join(client.tables()))

    # ------------------------------------------------------------ #
    # 3. Two clients explore concurrently.  They share the server's
    #    execution context, so statistics memoized for one answer the
    #    other's queries; identical queries hit the result cache.
    # ------------------------------------------------------------ #
    WORKLOAD = [
        ("census", "Age: [17, 90]"),
        ("census", "Age: [17, 45]"),
        ("census", "Age: [17, 60]\nSex: any"),
        ("census", "Age: [17, 90]"),      # repeat → result cache
        ("census_b", None),               # whole-table exploration
        ("census_b", None),               # repeat → result cache
    ]

    def run_client(name: str):
        own = ServiceClient(server.url)
        lines = []
        for table, query in WORKLOAD:
            response = own.explore(table, query, retry_busy=10)
            source = "cache" if response.cached else f"{response.elapsed:.3f}s"
            shown = (query or "(whole table)").replace("\n", " ∧ ")
            lines.append(
                f"  [{name}] {table}: {shown} -> "
                f"{len(response.map_set)} map(s) [{source}]"
            )
        return lines

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(run_client, n) for n in ("alice", "bob")]
        for future in futures:
            print("\n".join(future.result()))

    # ------------------------------------------------------------ #
    # 4. What did the service observe?
    # ------------------------------------------------------------ #
    metrics = client.metrics()
    requests = metrics["requests"]
    print(
        f"requests: {requests['received']} received, "
        f"{requests['completed']} computed, "
        f"{requests['cache_hits']} served from cache, "
        f"{requests['rejected']} rejected, {requests['failed']} failed"
    )
    cache = metrics["result_cache"]
    print(f"result cache hit rate: {cache['hit_rate']:.0%} "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    stats = metrics["statistics_cache"]
    print(f"statistics cache hit rate: {stats['hit_rate']:.0%}")
    p99 = metrics["latency"]["total"]["p99"]
    print(f"end-to-end p99: {p99 * 1000:.1f} ms")

    # The smoke-test contract: both clients completed the workload and
    # the repeats were served from the result cache.
    assert requests["failed"] == 0
    assert requests["cache_hits"] >= 2

service.close()
print("OK")
