"""Exploration sessions: the Figure-1 interaction loop.

After Atlas answers a query with maps, the user "can pick one and submit
it for further exploration" (drill into a region — the region becomes the
new query and is itself broken down) or "request a new map" (move down
the ranked list).  :class:`ExplorationSession` keeps that loop's state: a
breadcrumb stack of queries, the current map set, and a cursor into it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.engine.pipeline import MapSet
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import Explorer


@dataclasses.dataclass(frozen=True)
class SessionStep:
    """One breadcrumb entry: the query explored and the answer obtained."""

    query: ConjunctiveQuery
    map_set: MapSet


class ExplorationSession:
    """Stateful drill-down / next-map loop over one explorer.

    The session is a policy over an :class:`~repro.engine.facade.
    Explorer`: every answer comes from the explorer's one execution
    context, so drill-downs reuse the statistics (masks, assignment
    vectors, cut points) of earlier answers, and the session always
    sees the explorer's live table and config.

    The session keeps an :class:`~repro.core.personalize.InterestProfile`
    fed by every submitted query, so :meth:`personalized_maps` can
    re-rank the current answer by learned interest (§5.2 future work).
    """

    def __init__(self, explorer: Explorer):
        from repro.core.personalize import InterestProfile

        self._explorer = explorer
        self._history: list[SessionStep] = []
        self._cursor = 0
        self._profile = InterestProfile()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def explorer(self) -> Explorer:
        """The explorer every answer comes from."""
        return self._explorer

    @property
    def depth(self) -> int:
        """Number of drill-down levels currently on the stack."""
        return len(self._history)

    @property
    def current(self) -> SessionStep:
        """The step being looked at."""
        if not self._history:
            raise MapError("session not started; call start() first")
        return self._history[-1]

    @property
    def current_map(self) -> DataMap:
        """The map the cursor points at."""
        ranked = self.current.map_set.ranked
        if not ranked:
            raise MapError("current map set is empty")
        return ranked[self._cursor].map

    def breadcrumb(self) -> list[str]:
        """Human-readable trail of the queries explored so far."""
        return [step.query.describe_inline() for step in self._history]

    # ------------------------------------------------------------------ #
    # The Figure-1 interaction verbs
    # ------------------------------------------------------------------ #

    def start(self, query: ConjunctiveQuery | None = None) -> MapSet:
        """Begin (or restart) the session at ``query``."""
        self._history = []
        self._cursor = 0
        return self._push(query or ConjunctiveQuery())

    def drill(self, region_index: int) -> MapSet:
        """Submit a region of the current map for further exploration."""
        regions = self.current_map.regions
        if not 0 <= region_index < len(regions):
            raise MapError(
                f"region index {region_index} out of range "
                f"(map has {len(regions)} regions)"
            )
        return self._push(regions[region_index])

    def next_map(self) -> DataMap:
        """Request a new map: advance the cursor (wraps around)."""
        ranked = self.current.map_set.ranked
        if not ranked:
            raise MapError("current map set is empty")
        self._cursor = (self._cursor + 1) % len(ranked)
        return ranked[self._cursor].map

    def back(self) -> MapSet:
        """Pop one drill-down level (error at the root)."""
        if len(self._history) <= 1:
            raise MapError("already at the root of the exploration")
        self._history.pop()
        self._cursor = 0
        return self.current.map_set

    def reconfigure(self, **changes: object) -> MapSet:
        """Change engine configuration mid-session, keeping the trail.

        Reconfigures the session's explorer (:meth:`Explorer.configure
        <repro.engine.facade.Explorer.configure>`, so the explorer and
        everything else built over it switch too) and re-answers every
        query on the breadcrumb at the new configuration, so the
        drill-down history, the breadcrumb, and the learned interest
        profile all survive a mid-session switch (the REPL's
        ``fidelity`` command rides on this).  Returns the re-answered
        current map set.
        """
        if not self._history:
            raise MapError("session not started; call start() first")
        self._explorer.configure(**changes)
        # Re-answer, not re-submit: the profile already observed these
        # queries once; a config change is not new user intent.
        return self.refresh()

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def append(self, rows) -> Table:
        """Append rows to the session's table (incremental maintenance).

        The drill-down history keeps showing the answers it was built
        from — maps are snapshots until :meth:`refresh` re-explores
        them against the new version.  Returns the new table.
        """
        return self._explorer.append(rows).table

    def refresh(self) -> MapSet:
        """Re-explore the whole breadcrumb against the current version.

        Every query on the stack is re-answered through the explorer's
        (already advanced) context, so the trail, the cursor map set, and
        the learned interest profile all survive an append.  Re-answer,
        not re-submit: the profile observed these queries once; new
        data is not new user intent.  Returns the refreshed current
        map set.
        """
        if not self._history:
            raise MapError("session not started; call start() first")
        self._history = [
            SessionStep(step.query, self._explorer.explore(step.query))
            for step in self._history
        ]
        self._cursor = 0
        return self.current.map_set

    @property
    def profile(self):
        """The interest profile learned from this session's queries."""
        return self._profile

    def personalized_maps(self, blend: float = 0.3):
        """The current maps re-ranked by entropy + learned interest."""
        from repro.core.personalize import personalized_rank

        return personalized_rank(
            [r.map for r in self.current.map_set.ranked],
            self._explorer.table,
            self._profile,
            blend=blend,
        )

    def _push(self, query: ConjunctiveQuery) -> MapSet:
        map_set = self._explorer.explore(query)
        self._history.append(SessionStep(query=query, map_set=map_set))
        self._cursor = 0
        self._profile.observe_query(query)
        return map_set
