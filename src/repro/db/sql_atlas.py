"""SqlAtlas: the whole pipeline through the SQL-only surface (Section 4).

The paper's architecture section warns that supporting standard APIs
"limits the scope of the operations that can be pushed to the database,
as only SQL may be used".  This engine demonstrates the consequence:
the same four framework steps, but every measurement is a SQL statement —

* CUT medians by COUNT(*) binary search,
* categorical cuts by GROUP BY histograms,
* map distances by per-cell COUNT contingency tables,
* covers and ranking by COUNT per region.

The result matches the native engine (the equivalence tests prove it on
the census workload) at the cost of a long statement log — exactly the
trade-off the paper describes, measured in experiment E14.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering import cluster_maps_from_matrix
from repro.core.config import AtlasConfig
from repro.core.cut import (
    balanced_label_groups,
    ordered_labels,
    _numeric_subpredicates,
)
from repro.core.datamap import DataMap
from repro.core.distance import MapDistanceMatrix
from repro.core.information import rajski_distance, variation_of_information
from repro.core.ranking import RankedMap
from repro.core.information import entropy
from repro.db.connection import SqlConnection
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import MapSet, Pipeline
from repro.engine.registry import strategy_key
from repro.engine.stages import PipelineState
from repro.db.pushdown import (
    sql_category_histogram,
    sql_count,
    sql_joint_distribution,
    sql_numeric_range,
    sql_region_counts,
)
from repro.dataset.types import ColumnKind
from repro.errors import ConfigError, MapError, QueryError
from repro.query.predicate import SetPredicate
from repro.query.query import ConjunctiveQuery


class SqlAtlas:
    """Map generation driving a DBMS through SQL text only.

    Parameters
    ----------
    connection:
        The SQL-only connection (its statement log shows the cost).
    table_name:
        The relation to explore.
    config:
        Engine tunables.  Only the MEDIAN numeric strategy is available
        through SQL (the pushdown limitation the paper predicts — the
        intra-cluster-distance split needs the raw values); FREQUENCY,
        ALPHABETIC, and USER_ORDER categorical strategies all work via
        GROUP BY.
    """

    def __init__(
        self,
        connection: SqlConnection,
        table_name: str,
        config: AtlasConfig | None = None,
    ):
        self._connection = connection
        self._table_name = table_name
        self._config = config or AtlasConfig()
        numeric = strategy_key(self._config.numeric_strategy)
        if numeric != "median":
            # Fail fast instead of silently computing medians: the
            # other strategies need the raw values, which only SQL
            # statements this engine does not issue could avoid.
            raise ConfigError(
                f"numeric cut strategy {numeric!r} cannot be pushed down "
                "through the SQL surface; only 'median' is available"
            )
        # Schema discovery: one bounded probe for column names/kinds.
        probe = connection.query(
            f'SELECT * FROM "{table_name}" LIMIT 200'
        )
        self._kinds: dict[str, ColumnKind] = probe.kinds()
        self._probe_roles = {c.name: c.role() for c in probe.columns}

    @property
    def statement_count(self) -> int:
        """Statements issued so far (the pushdown cost metric of E14)."""
        return len(self._connection.statement_log)

    # ------------------------------------------------------------------ #
    # The pipeline
    # ------------------------------------------------------------------ #

    def explore(self, query: ConjunctiveQuery | None = None) -> MapSet:
        """Run the Section-3 pipeline through the SQL surface.

        The same :class:`~repro.engine.pipeline.Pipeline` driver as the
        native engine, with every stage swapped for a statement-issuing
        equivalent — the stage protocol is the pluggability seam.
        """
        context = ExecutionContext(None, self._config)
        return self.pipeline().run(query or ConjunctiveQuery(), context)

    def pipeline(self) -> Pipeline:
        """This engine's stage composition (SQL equivalents of §3)."""
        return Pipeline(
            (
                _SqlScopeStage(self),
                _SqlCandidateStage(self),
                _SqlClusteringStage(self),
                _SqlMergeStage(self),
                _SqlRankingStage(self),
            )
        )

    # ------------------------------------------------------------------ #
    # CUT through SQL
    # ------------------------------------------------------------------ #

    def cut(self, query: ConjunctiveQuery, attribute: str) -> DataMap:
        """``CUT_attribute`` with all measurements pushed down."""
        kind = self._kinds.get(attribute)
        if kind is None:
            raise QueryError(f"unknown attribute {attribute!r}")
        if kind is ColumnKind.NUMERIC:
            regions = self._cut_numeric(query, attribute)
        else:
            regions = self._cut_categorical(query, attribute)
        if not regions:
            return DataMap(
                [query], attributes=[attribute], label=f"cut:{attribute}"
            )
        return DataMap(
            regions, attributes=[attribute], label=f"cut:{attribute}"
        )

    def _cut_numeric(self, query, attribute) -> list[ConjunctiveQuery]:
        low, high = sql_numeric_range(
            self._connection, attribute, self._table_name, query
        )
        if not np.isfinite(low) or not np.isfinite(high) or low == high:
            return []
        points = []
        # SQL pushdown supports equi-depth (median) splits; the paper's
        # default.  n_splits medians come from recursive range halving.
        for j in range(1, self._config.n_splits):
            # quantile j/n via counting: binary search on the target rank
            points.append(
                self._sql_quantile(query, attribute, j / self._config.n_splits)
            )
        parent = query.predicate_on(attribute)
        cleaned = sorted(
            {p for p in points if low < p < high}
        )
        if not cleaned:
            return []
        predicates = _numeric_subpredicates(parent, attribute, cleaned)
        return [query.with_predicate(p) for p in predicates]

    def _sql_quantile(
        self, query: ConjunctiveQuery, attribute: str, q: float
    ) -> float:
        from repro.query.predicate import RangePredicate

        low, high = sql_numeric_range(
            self._connection, attribute, self._table_name, query
        )
        total = sql_count(self._connection, query, self._table_name)
        target = q * total
        for __ in range(20):
            pivot = (low + high) / 2.0
            below = sql_count(
                self._connection,
                query.conjoin(
                    ConjunctiveQuery(
                        [RangePredicate(attribute, float("-inf"), pivot)]
                    )
                ),
                self._table_name,
            )
            if below < target:
                low = pivot
            else:
                high = pivot
            if high - low <= 1e-9 * max(1.0, abs(high)):
                break
        return (low + high) / 2.0

    def _cut_categorical(self, query, attribute) -> list[ConjunctiveQuery]:
        histogram = sql_category_histogram(
            self._connection, attribute, self._table_name, query
        )
        parent = query.predicate_on(attribute)
        if isinstance(parent, SetPredicate):
            admitted = [
                v for v in parent.ordered_values
            ]
            counts = {v: histogram.get(v, 0) for v in admitted}
        else:
            admitted = list(histogram)
            counts = dict(histogram)
        if len(admitted) < 2:
            return []
        ordered = ordered_labels(
            self._config.categorical_strategy, admitted, counts
        )
        groups = balanced_label_groups(ordered, counts, self._config.n_splits)
        if len(groups) < 2:
            return []
        return [
            query.with_predicate(SetPredicate(attribute, group))
            for group in groups
        ]

    # ------------------------------------------------------------------ #
    # Distances, merging, ranking through SQL
    # ------------------------------------------------------------------ #

    def _scope_attributes(self, query: ConjunctiveQuery) -> list[str]:
        from repro.dataset.types import ColumnRole

        if len(query) > 0:
            scope = [a for a in query.attributes if a in self._kinds]
        else:
            scope = list(self._kinds)
        return [
            a for a in scope
            if self._probe_roles.get(a) is ColumnRole.DIMENSION
        ]

    def _distance_matrix(
        self,
        candidates: list[DataMap],
        query: ConjunctiveQuery,
        total: int,
    ) -> MapDistanceMatrix:
        n = len(candidates)
        raw = np.zeros((n, n))
        scaled = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                joint = sql_joint_distribution(
                    self._connection,
                    candidates[i],
                    candidates[j],
                    self._table_name,
                    base=query,
                    total=total,
                )
                raw[i, j] = raw[j, i] = variation_of_information(joint)
                scaled[i, j] = scaled[j, i] = rajski_distance(joint)
        return MapDistanceMatrix(
            maps=tuple(candidates), distances=raw, normalized=scaled
        )

    def _merge(self, cluster, query: ConjunctiveQuery) -> DataMap:
        if len(cluster) == 1:
            return cluster[0]
        method = strategy_key(self._config.merge_method)
        if method not in ("product", "composition"):
            # Custom registered merges run arbitrary Python over the
            # in-memory table; they cannot be pushed down as SQL.
            # Falling back silently would produce different maps than
            # the native engine under the same config.
            raise ConfigError(
                f"merge strategy {method!r} cannot be pushed down through "
                "the SQL surface; use 'product' or 'composition'"
            )
        if method == "composition":
            base, *rest = cluster
            regions = list(base.regions)
            for other in rest:
                for attribute in other.attributes:
                    refined = []
                    for region in regions:
                        refined.extend(self.cut(region, attribute).regions)
                    regions = refined
            attributes = [a for m in cluster for a in m.attributes]
            merged = DataMap(
                regions,
                attributes=list(dict.fromkeys(attributes)),
                label=" ∘ ".join(m.label for m in cluster),
            )
        else:
            from repro.core.merge import product

            merged = product(cluster)
        return self._drop_empty(merged)

    def _drop_empty(self, merged: DataMap) -> DataMap:
        counts = sql_region_counts(
            self._connection, merged, self._table_name
        )
        kept = [
            region
            for region, count in zip(merged.regions, counts)
            if count > 0
        ]
        if not kept:
            kept = [merged.regions[int(np.argmax(counts))]]
        return DataMap(kept, merged.attributes, merged.label)

    def _rank(self, merged: list[DataMap]) -> list[RankedMap]:
        total = sql_count(
            self._connection, ConjunctiveQuery(), self._table_name
        )
        ranked = []
        for data_map in merged:
            counts = sql_region_counts(
                self._connection, data_map, self._table_name
            )
            covered = counts.sum()
            score = (
                float(entropy(counts / covered)) if covered > 0 else 0.0
            )
            ranked.append(
                RankedMap(
                    map=data_map,
                    score=score,
                    covers=tuple(float(c) / total for c in counts),
                )
            )
        ranked.sort(
            key=lambda r: (-r.score, len(r.map.attributes), r.map.label)
        )
        return ranked


# --------------------------------------------------------------------- #
# The SQL stage implementations
# --------------------------------------------------------------------- #
# Each stage mirrors a native engine stage but measures through SQL
# statements; they share the generic Pipeline driver (and its per-stage
# timing) with every other entry point.  The context's statistics cache
# is unused here — there is no in-memory table to cache over.


class _SqlScopeStage:
    """COUNT(*) probe: reject empty queries, record the row total."""

    name = "sampling"

    def __init__(self, engine: SqlAtlas):
        self._engine = engine

    def run(self, state: PipelineState, context: ExecutionContext) -> None:
        total = sql_count(
            self._engine._connection, state.query, self._engine._table_name
        )
        if total == 0:
            raise MapError("the query describes no tuples")
        state.n_rows_used = total


class _SqlCandidateStage:
    """CUT per eligible attribute, medians via COUNT(*) binary search."""

    name = "candidates"

    def __init__(self, engine: SqlAtlas):
        self._engine = engine

    def run(self, state: PipelineState, context: ExecutionContext) -> None:
        engine = self._engine
        state.candidates = [
            candidate
            for attribute in engine._scope_attributes(state.query)
            if not (candidate := engine.cut(state.query, attribute)).is_trivial
        ]


class _SqlClusteringStage:
    """Pairwise VI from per-cell COUNT contingency tables."""

    name = "clustering"

    def __init__(self, engine: SqlAtlas):
        self._engine = engine

    def run(self, state: PipelineState, context: ExecutionContext) -> None:
        if not state.candidates:
            state.clustering = None
            return
        if state.n_rows_used <= 0:
            raise MapError(
                "stage 'clustering' needs the query's row total but none "
                "was set; include a counting scope stage (e.g. the SQL "
                "sampling stage) earlier in the pipeline"
            )
        matrix = self._engine._distance_matrix(
            state.candidates, state.query, state.n_rows_used
        )
        state.clustering = cluster_maps_from_matrix(
            state.candidates, matrix, context.config
        )


class _SqlMergeStage:
    """Merge clusters; empty regions dropped via COUNT per region."""

    name = "merging"

    def __init__(self, engine: SqlAtlas):
        self._engine = engine

    def run(self, state: PipelineState, context: ExecutionContext) -> None:
        if state.clustering is None:
            state.merged = []
            return
        state.merged = [
            m
            for cluster in state.clustering.clusters
            if not (m := self._engine._merge(cluster, state.query)).is_trivial
        ]


class _SqlRankingStage:
    """Entropy ranking over COUNT-per-region covers."""

    name = "ranking"

    def __init__(self, engine: SqlAtlas):
        self._engine = engine

    def run(self, state: PipelineState, context: ExecutionContext) -> None:
        if not state.merged:
            state.ranked = ()
            return
        ranked = self._engine._rank(state.merged)
        state.ranked = tuple(ranked[: context.config.max_maps])
