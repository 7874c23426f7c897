"""Pipeline stages: the Section-3 framework as pluggable components.

Each stage implements the :class:`Stage` protocol — a ``name`` (the key
its wall-clock time is reported under, matching the paper's
quasi-real-time accounting) and a ``run`` method that advances a
:class:`PipelineState`.  The five built-ins mirror the framework steps:

====================  ==============================================
``ScopeStage``        §5.1 sampling lever (deterministic per query)
``CandidateStage``    §3.1 CUT per eligible attribute
``ClusteringStage``   §3.2 VI distances + agglomeration
``MergeStage``        §3.3 product / composition per cluster
``RankingStage``      §3.4 entropy ranking
====================  ==============================================

Stages communicate only through the state object.  The scope stage
reads the run's one statistics backend from the
:class:`~repro.engine.context.ExecutionContext` into the state, and
every later stage measures through that backend, so a run answers from
one table version even when an append lands mid-run.  Custom stages
can be swapped in (the SQL-only engine substitutes all five with
statement-issuing equivalents and reuses the same
:class:`~repro.engine.pipeline.Pipeline` driver).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.core.candidates import candidate_attributes
from repro.core.clustering import MapClustering, cluster_maps_from_matrix
from repro.core.datamap import DataMap
from repro.core.ranking import RankedMap, rank_maps
from repro.engine.registry import MERGES
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dataset.table import Table
    from repro.engine.backends import StatsBackend
    from repro.engine.context import ExecutionContext


@dataclasses.dataclass
class PipelineState:
    """Mutable scratchpad a query carries through the stages.

    ``scope`` is the table the run scans and ``stats`` the statistics
    backend over it; the scope stage sets both, once, and later stages
    read them from here rather than from the context, so every stage of
    one run sees the same rows at the same version.
    """

    query: ConjunctiveQuery
    scope: "Table | None" = None
    stats: "StatsBackend | None" = None
    candidates: list[DataMap] = dataclasses.field(default_factory=list)
    clustering: MapClustering | None = None
    merged: list[DataMap] = dataclasses.field(default_factory=list)
    ranked: tuple[RankedMap, ...] = ()
    n_rows_used: int = 0
    #: Free-form slot for custom stages to pass data between each other.
    meta: dict[str, object] = dataclasses.field(default_factory=dict)


@runtime_checkable
class Stage(Protocol):
    """One pluggable pipeline step."""

    #: Timing key; the five canonical names map onto
    #: :class:`~repro.engine.pipeline.StageTimings` fields, anything
    #: else lands in ``StageTimings.extra``.
    name: str

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        """Advance ``state``; read shared statistics from ``context``."""
        ...  # pragma: no cover - protocol stub


class ScopeStage:
    """Pick the rows the run scans: full table or a deterministic sample."""

    name = "sampling"

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        while True:
            version = context.version
            state.scope = context.scoped(state.query)
            state.stats = context.stats_for(state.scope)
            # An advance between the two reads pairs a pre-append table
            # with a fresh backend, not the maintained one: read again.
            if context.version == version:
                break
        # The backend decides how many rows actually back the answer
        # (a sketch backend measures over its bounded reservoir).
        state.n_rows_used = state.stats.n_rows


def _require_stats(state: PipelineState, stage_name: str) -> "StatsBackend":
    """The run's backend, or a clear error naming the missing stage."""
    if state.stats is None:
        raise MapError(
            f"stage {stage_name!r} needs a scope table but none was set; "
            "include a scope-setting stage (e.g. ScopeStage) earlier in "
            "the pipeline"
        )
    return state.stats


class CandidateStage:
    """One single-attribute CUT candidate per eligible attribute (§3.1)."""

    name = "candidates"

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        stats = _require_stats(state, self.name)
        # Attribute eligibility (role inference, distinct counts) is
        # measured on the backend's effective rows, so a sketch-fidelity
        # run never pays a full-table scan to enumerate candidates.
        state.candidates = [
            candidate
            for attribute in candidate_attributes(
                stats.effective_table, state.query
            )
            if not (
                candidate := stats.cut_map(
                    state.query, attribute, context.config
                )
            ).is_trivial
        ]


class ClusteringStage:
    """Group statistically dependent candidates by VI distance (§3.2).

    Definition 2 measures dependency over "a random tuple in this set" —
    the set the user query describes.  Restricting the estimate to those
    tuples matters on dirty data: otherwise every row that fails the
    user query escapes *all* maps at once, and that shared escape
    outcome manufactures dependency between every candidate pair
    (measured in the E13 robustness experiment).  Assignment vectors are
    computed once over the scope table (cached in the run's backend)
    and sliced, which commutes with row selection.
    """

    name = "clustering"

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        if not state.candidates:
            state.clustering = None
            return
        stats = _require_stats(state, self.name)
        described = stats.query_mask(state.query)
        n_described = int(described.sum())
        if n_described in (0, stats.n_rows):
            row_indices, scope_key = None, None
        else:
            row_indices, scope_key = np.flatnonzero(described), state.query
        matrix = stats.distance_matrix(
            tuple(state.candidates), row_indices, scope_key
        )
        state.clustering = cluster_maps_from_matrix(
            state.candidates, matrix, context.config
        )


class MergeStage:
    """Combine each cluster with the configured merge operator (§3.3)."""

    name = "merging"

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        if state.clustering is None:
            state.merged = []
            return
        merge = MERGES.get(context.config.merge_method)
        stats = _require_stats(state, self.name)
        # Merge operators measure covers (product) and re-CUT regions
        # (composition) over a table; handing them the backend's
        # effective rows keeps their cost bounded by the fidelity
        # budget and their estimates consistent with every other stage.
        measured = stats.effective_table
        merged = [
            merge(cluster, measured, context.config)
            for cluster in state.clustering.clusters
        ]
        state.merged = [m for m in merged if not m.is_trivial]


class RankingStage:
    """Rank merged maps by cover-distribution entropy (§3.4).

    Delegates to :func:`repro.core.ranking.rank_maps` with covers read
    from the run's backend, so the score formula and tie-breaking live
    in one place while the assignment vectors clustering already paid
    for are reused here.
    """

    name = "ranking"

    def run(self, state: PipelineState, context: "ExecutionContext") -> None:
        if not state.merged:
            state.ranked = ()
            return
        stats = _require_stats(state, self.name)
        state.ranked = tuple(
            rank_maps(
                state.merged,
                state.scope,
                max_maps=context.config.max_maps,
                covers_fn=stats.covers,
            )
        )


def default_stages() -> tuple[Stage, ...]:
    """The canonical native pipeline, in framework order."""
    return (
        ScopeStage(),
        CandidateStage(),
        ClusteringStage(),
        MergeStage(),
        RankingStage(),
    )
