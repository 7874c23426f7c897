"""One registry of execution contexts behind every front door: the
service, an :class:`~repro.engine.facade.Explorer` and the anytime
policy over it, so a statistics build is paid once per ``(table,
config)`` and shared by a second client, a config switched back to, or
a repeat anytime run.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Iterable
from threading import Lock

from repro.core.config import AtlasConfig, Parallelism
from repro.dataset.table import Table
from repro.engine.backends import CacheCounters
from repro.engine.context import ExecutionContext, merged_backend_snapshot
from repro.errors import MapError, StoreError


def config_key(config: AtlasConfig) -> tuple:  # cache-key-of: AtlasConfig
    """Identity of a configuration *for caching purposes*.

    The worker count is canonicalized out of the parallelism spec:
    answers are bit-identical at any worker count (only the shard
    layout is statistical), so requests differing in it alone must
    share one execution context — one O(table) statistics build —
    and one result-cache entry.
    """
    key = config.to_dict()
    parallelism = config.parallelism
    key["parallelism"] = Parallelism(
        workers=1, shards=parallelism.shards
    ).spec()
    return tuple(sorted(key.items()))


class ContextRegistry:
    """A bounded LRU of shared contexts keyed by ``(table name,
    config_key(config))``; past ``capacity`` the least recently used is
    dropped, with its memoized statistics.

    ``warm(name, table, config)``, if given, returns an ``adopt_stats``
    factory (or None) for a miss.  It is called outside the registry
    lock, so a caller that holds its own lock around :meth:`advance`
    (the catalog's append) keeps the lock order ``caller -> registry``.
    """

    def __init__(
        self,
        capacity: int = 32,
        warm: Callable[[str, Table, AtlasConfig], Callable | None] | None = None,
    ):
        self._lock = Lock()
        self._contexts: OrderedDict[tuple, ExecutionContext] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._warm_starts = 0  # guarded-by: _lock
        self._capacity = capacity
        self._warm = warm

    def context_for(
        self, name: str, table: Table, config: AtlasConfig
    ) -> ExecutionContext:
        """The context of ``(name, config)``, at ``table``'s version or
        later; built, or warm-started, on a miss."""
        key = (name, config_key(config))
        with self._lock:
            context = self._hit(key, table)
        if context is not None:
            return context
        factory = None if self._warm is None else self._warm(name, table, config)
        fresh = ExecutionContext(table, config)
        with self._lock:
            # Another caller may have installed one while we built;
            # theirs wins (its statistics may already be loaded).
            context = self._hit(key, table)
            if context is None:
                context = fresh
                while len(self._contexts) >= self._capacity:
                    self._contexts.popitem(last=False)
                self._contexts[key] = context
        if factory is not None:
            try:
                # Racers on one cold context: only the restore that
                # installed its backend is a warm start.
                if context.adopt_stats(factory):
                    with self._lock:
                        self._warm_starts += 1
            except (StoreError, MapError):
                # An append raced the restore (summary version no longer
                # matches the context's table), or the stored document
                # is malformed — a fresh build is always correct, so
                # warm-start failures never fail an explore.
                pass
        return context

    def _hit(self, key: tuple, table: Table) -> ExecutionContext | None:  # holds-lock: _lock
        context = self._contexts.get(key)
        if context is not None:
            self._contexts.move_to_end(key)
            if context.version < table.version:
                # Registered while an append was in flight, it missed
                # the maintenance pass: catch it up, so an answer at an
                # old version is never computed for a newer one.
                context.advance(table)
        return context

    def peek(self, name: str, config: AtlasConfig) -> ExecutionContext | None:
        """The live context of ``(name, config)``, if any, leaving the
        LRU order alone.  Never waits (the service calls it on its event
        loop): a busy registry answers None."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._get((name, config_key(config)))
        finally:
            self._lock.release()

    def _get(self, key: tuple) -> ExecutionContext | None:  # holds-lock: _lock
        return self._contexts.get(key)

    def advance(self, name: str, new_table: Table) -> None:
        """Advance every context of ``name`` to ``new_table`` in one
        critical section, so contexts move through versions in append
        order."""
        with self._lock:
            for key, context in self._contexts.items():
                if key[0] == name:
                    context.advance(new_table)

    def drop(self, names: Iterable[str]) -> None:
        """Forget the contexts of the named tables (re-registered)."""
        names = set(names)
        with self._lock:
            for key in [k for k in self._contexts if k[0] in names]:
                del self._contexts[key]

    def snapshot(self) -> dict:
        """``contexts``, ``warm_starts`` and ``statistics_cache`` (the
        per-kind merge over every live context), for ``/metrics``."""
        with self._lock:
            contexts, warm_starts = list(self._contexts.values()), self._warm_starts
        backends = merged_backend_snapshot(contexts)
        total = CacheCounters(
            sum(block["hits"] for block in backends.values()),
            sum(block["misses"] for block in backends.values()),
        )
        return {
            "contexts": len(contexts),
            "warm_starts": warm_starts,
            "statistics_cache": {
                "hits": total.hits,
                "misses": total.misses,
                "hit_rate": total.hit_rate,
                "backends": backends,
            },
        }
