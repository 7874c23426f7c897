"""Distributed scatter/gather serving: shard servers + a coordinator.

The multi-machine tier of the scan/merge split
(:mod:`repro.engine.parallel`).  N :class:`ShardServer` processes each
own one contiguous row range of a table; a :class:`ClusterCoordinator`
fans scans out over HTTP, collects per-shard row samples and full-scan
GK/Misra–Gries summaries, and folds them in shard order with the same
merge rules the local path uses — so cluster answers are bit-identical
to serial and local-parallel answers over the same shard layout.

Quickstart (one machine, two server processes)::

    from repro.cluster import spawn_local_cluster, attach_cluster

    servers = spawn_local_cluster(2)
    attach_cluster([s.url for s in servers])
    import repro
    maps = (repro.explorer(table).approximate().cluster(2).explore())

See docs/TUTORIAL.md chapter 12.
"""

from repro.cluster.coordinator import ClusterCoordinator, server_for_shard
from repro.cluster.launch import (
    ShardProcess,
    spawn_local_cluster,
    spawn_shard_server,
)
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
)
from repro.cluster.runtime import (
    active_cluster,
    attach_cluster,
    detach_cluster,
)
from repro.cluster.shard import ShardServer, ShardStore, serve_shard

__all__ = [
    "CLUSTER_PROTOCOL_VERSION",
    "ClusterCoordinator",
    "OwnShardRequest",
    "ScanRequest",
    "ShardProcess",
    "ShardServer",
    "ShardStore",
    "active_cluster",
    "attach_cluster",
    "detach_cluster",
    "serve_shard",
    "server_for_shard",
    "spawn_local_cluster",
    "spawn_shard_server",
]
