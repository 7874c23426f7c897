"""The process-wide active cluster: where ``cluster`` configs resolve.

A ``Parallelism`` with ``mode="cluster"`` is pure configuration — it
names *that* the scan should fan out, not *where*.  The where lives
here: one module-global :class:`~repro.cluster.coordinator.ClusterCoordinator`
the facade, REPL, and :class:`~repro.engine.context.ExecutionContext`
dispatch consult.

With no cluster attached, a ``cluster`` config **degrades to the local
scan/merge split** — same shard layout, same answers, single machine —
so configs can travel between clustered and unclustered deployments
without changing results: the coordinator and the local scan threads
are two venues of one build.
"""

from __future__ import annotations

import threading

from repro.cluster.coordinator import ClusterCoordinator

_ACTIVE: ClusterCoordinator | None = None
_LOCK = threading.Lock()


def attach_cluster(
    cluster: "ClusterCoordinator | list[str] | tuple[str, ...]",
    *,
    timeout: float = 30.0,
) -> ClusterCoordinator:
    """Make a coordinator the process's active cluster.

    Accepts a built coordinator or a list of shard-server URLs (a
    coordinator is constructed).  Returns the active coordinator.
    """
    global _ACTIVE
    if not isinstance(cluster, ClusterCoordinator):
        cluster = ClusterCoordinator(cluster, timeout=timeout)
    with _LOCK:
        _ACTIVE = cluster
    return cluster


def active_cluster() -> ClusterCoordinator | None:
    """The attached coordinator, or ``None`` (= run cluster configs locally)."""
    with _LOCK:
        return _ACTIVE


def detach_cluster() -> ClusterCoordinator | None:
    """Detach (and return) the active coordinator, if any."""
    global _ACTIVE
    with _LOCK:
        previous = _ACTIVE
        _ACTIVE = None
    return previous
