"""A thread-safe LRU cache for whole exploration answers.

The engine's :class:`~repro.engine.backends.ExactBackend` memoizes the
*statistics* behind an answer; this cache sits one level up and
memoizes the answer itself, keyed by the deterministic query
fingerprint (plus table and configuration).  Interactive traffic
repeats itself — the §5.1 anticipation argument — so a small LRU turns
the common repeated query into a dictionary lookup.

The service stores one :class:`CachedAnswer` per key: the answer as a
hit returns it (a frozen response over immutable maps, so one object
is safely shared by every thread that hits it) and, once an HTTP
frontend has served it, its encoded JSON body, so a later hit does no
``to_dict`` or ``json.dumps``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

V = TypeVar("V")


class CachedAnswer:
    """One result-cache entry: the response every hit returns (marked
    ``cached``) and its JSON body."""

    __slots__ = ("response", "_body")

    def __init__(self, response):
        self.response = dataclasses.replace(response, cached=True)
        self._body: bytes | None = None

    def body(self) -> bytes:
        """The encoded response; racing first calls encode equal bytes."""
        if self._body is None:
            self._body = json.dumps(self.response.to_dict()).encode("utf-8")
        return self._body


class ResultCache(Generic[V]):
    """Bounded LRU with hit/miss/eviction accounting."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, V] = OrderedDict()  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    @property
    def capacity(self) -> int:
        """Maximum number of retained answers."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> V | None:
        """The cached value, refreshed to most-recently-used, or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert (or refresh) a value, evicting the LRU entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe traffic)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict:
        """Counters for the ``/metrics`` endpoint."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": self._hits / total if total else 0.0,
            }
