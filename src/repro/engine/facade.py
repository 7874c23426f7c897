"""The fluent facade: one-liner exploration with a shared context.

:func:`explorer` is the recommended entry point for the whole system::

    from repro import explorer
    from repro.datagen import census_table

    table = census_table(n_rows=50_000, seed=0)
    maps = explorer(table).sample(20_000).cut("median").explore("Age: [17, 90]")

Every knob is a chainable method, queries may be strings in the paper's
syntax or :class:`~repro.query.query.ConjunctiveQuery` objects, and the
explorer keeps one :class:`~repro.engine.context.ExecutionContext` per
config alive across calls, in a
:class:`~repro.engine.contexts.ContextRegistry` — so a batch
(:meth:`Explorer.explore_many`), a drill-down sequence or a config
switched back to reuses every mask, assignment vector, and cut point
computed for earlier answers instead of recomputing them.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.config import AtlasConfig
from repro.engine.context import ExecutionContext
from repro.engine.contexts import ContextRegistry
from repro.engine.pipeline import MapSet, Pipeline
from repro.query.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.anytime import AnytimeExplorer
    from repro.core.session import ExplorationSession
    from repro.dataset.table import Table


class Explorer:
    """Fluent, batch-capable front door to the exploration engine.

    The explorer owns a :class:`ContextRegistry` and runs queries on
    the context of its current config; the table that context serves is
    the explorer's one live table: appends advance it, and sessions,
    prefetch and anytime policies built over the explorer read it, so
    no copy of the table can fall behind.  An empty table is rejected
    at construction.

    Configuration methods return ``self`` so calls chain; each one
    selects the registry's context for the new config, so switching
    back to a config used before reuses its built statistics.
    Strategy setters accept registry names (strings) or the legacy
    enums.
    """

    def __init__(
        self,
        table: "Table",
        config: AtlasConfig | None = None,
        pipeline: Pipeline | None = None,
    ):
        self._contexts = ContextRegistry()
        self._config = config or AtlasConfig()
        self._pipeline = pipeline or Pipeline.default()
        self._select(table)

    # ------------------------------------------------------------------ #
    # Fluent configuration
    # ------------------------------------------------------------------ #

    def configure(self, **changes: object) -> "Explorer":
        """Replace any :class:`AtlasConfig` fields by keyword."""
        self._config = self._config.replace(**changes)
        return self._select(self.table)

    def _select(self, table: "Table") -> "Explorer":
        """Run on the registry's context of the current config."""
        self._context = self._contexts.context_for(table.name, table, self._config)
        return self

    def sample(self, n_rows: int | None) -> "Explorer":
        """Scan a uniform sample of ``n_rows`` (§5.1); ``None`` = all."""
        return self.configure(sample_size=n_rows)

    def cut(self, strategy: object) -> "Explorer":
        """Numeric cutting strategy, e.g. ``"median"`` or ``"twomeans"``."""
        return self.configure(numeric_strategy=strategy)

    def categorical(self, strategy: object) -> "Explorer":
        """Categorical cutting strategy, e.g. ``"frequency"``."""
        return self.configure(categorical_strategy=strategy)

    def merge(self, method: object) -> "Explorer":
        """Cluster merge operator, ``"product"`` or ``"composition"``."""
        return self.configure(merge_method=method)

    def linkage(self, linkage: object) -> "Explorer":
        """Agglomeration linkage, e.g. ``"single"`` (§3.2 favours it)."""
        return self.configure(linkage=linkage)

    def splits(self, n: int) -> "Explorer":
        """Partitions per attribute (the paper fixes 2, §3.1)."""
        return self.configure(n_splits=n)

    def max_maps(self, n: int) -> "Explorer":
        """Cap on the ranked result list."""
        return self.configure(max_maps=n)

    def threshold(self, value: float) -> "Explorer":
        """Dependence threshold for clustering (§3.2 leaves it open)."""
        return self.configure(dependence_threshold=value)

    def seed(self, seed: int) -> "Explorer":
        """Random seed for sampling determinism."""
        return self.configure(seed=seed)

    def fidelity(self, fidelity: object) -> "Explorer":
        """Execution fidelity: ``"exact"``, ``"sketch[:rows[:eps]]"``,
        or a :class:`~repro.core.config.Fidelity` value."""
        return self.configure(fidelity=fidelity)

    def approximate(
        self, budget_rows: int = 20_000, epsilon: float = 0.005
    ) -> "Explorer":
        """Answer from bounded sketches instead of full-table scans."""
        from repro.core.config import Fidelity

        return self.configure(
            fidelity=Fidelity.sketch(budget_rows=budget_rows, epsilon=epsilon)
        )

    def exact(self) -> "Explorer":
        """Full-fidelity execution (undoes :meth:`approximate`)."""
        from repro.core.config import Fidelity

        return self.configure(fidelity=Fidelity.exact())

    def parallel(
        self, workers: int | str = "auto", shards: int | None = None
    ) -> "Explorer":
        """Build sketch statistics with the multi-core scan/merge split.

        ``workers`` is a pure wall-clock knob (``"auto"`` =
        ``os.cpu_count()``); ``shards`` defaults to a fixed
        machine-independent layout, so the same exploration is
        bit-identical at any worker count.  Applies at sketch fidelity
        (combine with :meth:`approximate`); exact execution ignores it.
        """
        from repro.core.config import Parallelism

        return self.configure(parallelism=Parallelism.of(workers, shards))

    def cluster(
        self, servers: int | str = "auto", shards: int | None = None
    ) -> "Explorer":
        """Fan the sketch scans out to attached shard servers.

        ``servers`` counts shard servers (``"auto"`` = every server of
        the attached :func:`repro.cluster.active_cluster`); ``shards``
        defaults to the same fixed layout as :meth:`parallel`, so a
        cluster exploration is bit-identical to a local one.  With no
        cluster attached the scan runs on local workers instead — same
        answers, one machine.
        """
        from repro.core.config import Parallelism

        return self.configure(parallelism=Parallelism.cluster(servers, shards))

    def serial(self) -> "Explorer":
        """Single-core, unsharded execution (undoes :meth:`parallel`
        and :meth:`cluster`)."""
        from repro.core.config import Parallelism

        return self.configure(parallelism=Parallelism.serial())

    def with_pipeline(self, pipeline: Pipeline) -> "Explorer":
        """Swap in a custom stage composition."""
        self._pipeline = pipeline
        return self

    def append(self, rows: object) -> "Explorer":
        """Append rows to the table (streaming) and keep exploring.

        Every registered context is *kept*: it is advanced
        incrementally (sketch backends merge delta sketches and top up
        reservoirs; exact backends start fresh memos over the new rows),
        so the statistics computed for earlier answers that an append
        cannot invalidate keep paying off.
        """
        new_table = self.table.append(rows)
        self._contexts.advance(new_table.name, new_table)
        return self._select(new_table)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def table(self) -> "Table":
        """The live table: the version the context serves."""
        return self._context.table

    @property
    def config(self) -> AtlasConfig:
        """The accumulated configuration."""
        return self._config

    @property
    def pipeline(self) -> Pipeline:
        """The stage composition queries run through."""
        return self._pipeline

    @property
    def context(self) -> ExecutionContext:
        """The execution context of the current config: kept across
        queries and appends, selected by a config change."""
        return self._context

    @property
    def contexts(self) -> ContextRegistry:
        """Every context this explorer keeps, one per config used."""
        return self._contexts

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #

    def explore(self, query: "str | ConjunctiveQuery | None" = None) -> MapSet:
        """Answer one query (string in the paper's syntax, or parsed)."""
        return self._pipeline.run(self._parse(query), self.context)

    def explore_many(
        self,
        queries: Iterable["str | ConjunctiveQuery | None"],
        *,
        reuse_answers: bool = True,
    ) -> list[MapSet]:
        """Answer a batch of queries over one shared context.

        Results align with the input order.  Duplicate queries are
        answered once when ``reuse_answers`` is set (interactive traffic
        repeats itself — the §5.1 anticipation argument); even distinct
        queries share every memoized statistic through the context.
        """
        from repro.engine.context import order_sensitive_key

        answers: dict[tuple, MapSet] = {}
        results: list[MapSet] = []
        for raw in queries:
            query = self._parse(raw)
            key = order_sensitive_key(query)
            if reuse_answers and key in answers:
                results.append(answers[key])
                continue
            result = self._pipeline.run(query, self.context)
            if reuse_answers:
                answers[key] = result
            results.append(result)
        return results

    def session(self) -> "ExplorationSession":
        """A drill-down session over this explorer."""
        from repro.core.session import ExplorationSession

        return ExplorationSession(self)

    def anytime(
        self,
        query: "str | ConjunctiveQuery | None" = None,
        **kwargs: object,
    ) -> "AnytimeExplorer":
        """An anytime policy over this explorer (its live table and
        configuration).  Like :meth:`explore`, ``query`` may be text in
        the paper's syntax.
        """
        from repro.core.anytime import AnytimeExplorer

        return AnytimeExplorer(self, self._parse(query), **kwargs)

    @staticmethod
    def _parse(query: "str | ConjunctiveQuery | None") -> ConjunctiveQuery:
        if query is None:
            return ConjunctiveQuery()
        if isinstance(query, str):
            from repro.query.parser import parse_query

            return parse_query(query)
        return query

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Explorer table={self.table.name!r} rows={self.table.n_rows}>"


def explorer(table: "Table", config: AtlasConfig | None = None) -> Explorer:
    """Start a fluent exploration over ``table``."""
    return Explorer(table, config)
