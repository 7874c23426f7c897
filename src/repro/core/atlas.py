"""The Atlas engine: answer a query with a ranked list of data maps.

This is the DBMS-front-end shape of Figure 1 — the engine holds a table
(the DBMS layer), takes a conjunctive query, and returns a
:class:`MapSet` of ranked maps instead of tuples.  Since the engine
refactor, Atlas is a thin adapter over :class:`repro.engine.Pipeline`:
the Section-3 stages (scope → candidates → clustering → merging →
ranking), per-stage timing, and the memoized statistics cache all live
in :mod:`repro.engine`, and Atlas simply binds a table + configuration
into a persistent :class:`~repro.engine.context.ExecutionContext` so
consecutive queries (an interactive drill-down, say) reuse each other's
masks, assignment vectors, and cut points.

:class:`MapSet` and :class:`StageTimings` are re-exported here for
backward compatibility; they are defined in
:mod:`repro.engine.pipeline`.
"""

from __future__ import annotations

from repro.core.config import AtlasConfig
from repro.dataset.table import Table
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import MapSet, Pipeline, StageTimings  # noqa: F401 - re-exported
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery

__all__ = ["Atlas", "MapSet", "StageTimings"]


class Atlas:
    """Active DBMS front-end: generates and ranks data maps from a query.

    Parameters
    ----------
    table:
        The dataset being explored (one relation; use
        :meth:`repro.dataset.Catalog.star_around` for multi-table data).
    config:
        Engine tunables; defaults to the paper's values.
    context:
        Optional pre-existing execution context to share statistics
        with (the fluent facade passes its own so sessions and batches
        hit one cache); must be bound to the same table.
    pipeline:
        Optional custom stage composition; defaults to the native
        Section-3 pipeline.
    """

    def __init__(
        self,
        table: Table,
        config: AtlasConfig | None = None,
        *,
        context: ExecutionContext | None = None,
        pipeline: Pipeline | None = None,
    ):
        if table.n_rows == 0:
            raise MapError("cannot explore an empty table")
        self._table = table
        if context is not None:
            if context.table is not table:
                raise MapError(
                    "the shared context is bound to a different table"
                )
            # The pipeline reads configuration from the context; a
            # conflicting explicit config would be silently ignored,
            # so reject it instead.
            if config is not None and config != context.config:
                raise MapError(
                    "config conflicts with the shared context's config; "
                    "pass one or the other"
                )
            self._config = context.config
            self._context = context
        else:
            self._config = config or AtlasConfig()
            self._context = ExecutionContext(table, self._config)
        self._pipeline = pipeline or Pipeline.default()

    @property
    def table(self) -> Table:
        """The dataset being explored."""
        return self._table

    @property
    def config(self) -> AtlasConfig:
        """Engine configuration."""
        return self._config

    @property
    def context(self) -> ExecutionContext:
        """The execution context carrying the shared statistics cache."""
        return self._context

    @property
    def pipeline(self) -> Pipeline:
        """The stage composition queries run through."""
        return self._pipeline

    def explore(self, query: ConjunctiveQuery | None = None) -> MapSet:
        """Run the full Section-3 pipeline for ``query``.

        ``None`` (or an empty query) means "map the whole table": every
        dimension column becomes CUT scope.  Sampling (when configured)
        draws from a per-query child generator, so identical calls
        return identical maps.
        """
        return self._pipeline.run(query or ConjunctiveQuery(), self._context)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def append(self, rows) -> Table:
        """Append rows to the table and advance the engine onto them.

        ``rows`` takes the shapes :meth:`Table.append` accepts (a
        columnar mapping or a same-schema table).  The shared execution
        context maintains its statistics incrementally — sketch
        backends merge delta sketches and top up their reservoirs,
        exact backends start fresh memos — so subsequent
        explores answer at the new version without a cold start.
        Returns the new (version-bumped) table.

        The append builds on the *context's* table — the live version —
        so engines sharing one context (a fluent explorer and its
        session) can interleave appends without forking history.
        """
        return self.advance(self._context.table.append(rows))

    def advance(self, new_table: Table) -> Table:
        """Rebind the engine to an externally appended table version."""
        self._context.advance(new_table)
        self._table = new_table
        return new_table
