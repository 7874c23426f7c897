"""Anticipative computation (paper Section 5.1).

"The idea of this approach is to perform calculations offline, by
anticipating what the user will ask.  There are two periods during which
this is possible: before the first query, and during the idle time
between each query."

The paper leaves "deciding what to compute" open; the natural policy in
the Figure-1 interaction model is: *after every answer, the user's next
query is one of the displayed regions* — so during idle time we
precompute the map sets of the regions of the top-ranked maps.

:class:`AnticipativeExplorer` is that prefetch policy over an
:class:`~repro.engine.facade.Explorer`, with a query-keyed cache.  ``prefetch()`` is
explicitly callable (simulating the idle period); ``explore()`` serves
from the cache when it can.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.config import AtlasConfig
from repro.engine.pipeline import MapSet
from repro.query.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import Explorer


#: A cached answer's key: (table version, config, query).
_Key = tuple[int, AtlasConfig, ConjunctiveQuery]


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for the anticipative cache."""

    hits: int = 0
    misses: int = 0
    prefetched: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of explore() calls served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class AnticipativeExplorer:
    """Idle-time prefetching of likely next queries over an explorer.

    Cached answers are keyed by the explorer's table version and config
    as well as the query, so an append or a reconfigure through the
    explorer (or a session sharing it) is never answered from before
    the change.
    """

    def __init__(
        self,
        explorer: Explorer,
        top_maps_to_prefetch: int = 2,
        max_cache_entries: int = 256,
    ):
        self._explorer = explorer
        self._top_maps = int(top_maps_to_prefetch)
        self._max_entries = int(max_cache_entries)
        self._cache: dict[_Key, MapSet] = {}
        self.stats = CacheStats()

    @property
    def explorer(self) -> Explorer:
        """The explorer answers come from."""
        return self._explorer

    @property
    def cache_size(self) -> int:
        """Number of cached answers."""
        return len(self._cache)

    def explore(self, query: ConjunctiveQuery | None = None) -> MapSet:
        """Answer a query, from cache when anticipated."""
        query = query or ConjunctiveQuery()
        key = self._key(query)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        result = self._explorer.explore(query)
        self._remember(key, result)
        return result

    def prefetch(self, answer: MapSet) -> int:
        """Idle-time work: precompute the drill-downs of ``answer``.

        Every region of the ``top_maps_to_prefetch`` best maps is a
        likely next query; compute and cache each one not already
        cached.  Returns the number of queries computed.
        """
        computed = 0
        for entry in answer.ranked[: self._top_maps]:
            for region in entry.map.regions:
                key = self._key(region)
                if key in self._cache:
                    continue
                self._remember(key, self._explorer.explore(region))
                self.stats.prefetched += 1
                computed += 1
        return computed

    def explore_and_prefetch(
        self, query: ConjunctiveQuery | None = None
    ) -> MapSet:
        """Answer, then use the idle period to anticipate the next step."""
        result = self.explore(query)
        self.prefetch(result)
        return result

    def _key(self, query: ConjunctiveQuery) -> _Key:
        explorer = self._explorer
        return (explorer.table.version, explorer.config, query)

    def _remember(self, key: _Key, result: MapSet) -> None:
        if len(self._cache) >= self._max_entries:
            # Drop the oldest entry (insertion order = arrival order).
            oldest = next(iter(self._cache))
            del self._cache[oldest]
        self._cache[key] = result
