"""The pipeline driver: composes stages, times them, assembles answers.

This is the single code path behind every public entry point — the
fluent :class:`~repro.engine.facade.Explorer` (and the exploration
sessions built over it), the anytime explorer, and the SQL-only engine
all construct (or share) a :class:`Pipeline` and call
:meth:`Pipeline.run`.

Per-stage wall-clock timings are collected generically around each
stage (the paper's core non-functional requirement is quasi-real-time
latency, Sections 1/2/5.1, and the latency benchmarks read them
directly); stages themselves contain no timing code, so custom stages
get the accounting for free.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator, Sequence

from repro.core.clustering import MapClustering
from repro.core.datamap import DataMap
from repro.core.ranking import RankedMap
from repro.engine.cancel import CancelToken
from repro.engine.context import ExecutionContext
from repro.engine.stages import PipelineState, Stage, default_stages
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery

#: Stage names with a dedicated :class:`StageTimings` field.
CANONICAL_STAGES = ("sampling", "candidates", "clustering", "merging", "ranking")


@dataclasses.dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds spent in each pipeline stage."""

    sampling: float
    candidates: float
    clustering: float
    merging: float
    ranking: float
    #: ``(name, seconds)`` for stages beyond the canonical five.
    extra: tuple[tuple[str, float], ...] = ()

    @property
    def total(self) -> float:
        """Total pipeline time."""
        return (
            self.sampling
            + self.candidates
            + self.clustering
            + self.merging
            + self.ranking
            + sum(seconds for _, seconds in self.extra)
        )


@dataclasses.dataclass(frozen=True)
class MapSet:
    """The answer to a query: ranked maps plus pipeline metadata."""

    query: ConjunctiveQuery
    ranked: tuple[RankedMap, ...]
    clustering: MapClustering | None
    timings: StageTimings
    n_rows_used: int
    #: Fidelity spec the answer was computed at (``"exact"`` or a
    #: ``"sketch:<rows>:<eps>"`` budget) — provenance for clients and
    #: the REPL, and part of the service result-cache key.
    fidelity: str = "exact"
    #: Streaming version of the rows the answer was computed from
    #: (exact: one run reads one backend) — provenance for streaming
    #: clients, and how the differential tests prove a pre-append
    #: answer is never served post-append.
    version: int = 0

    @property
    def maps(self) -> tuple[DataMap, ...]:
        """The ranked maps, best first."""
        return tuple(r.map for r in self.ranked)

    @property
    def best(self) -> DataMap:
        """The top-ranked map."""
        if not self.ranked:
            raise MapError("the map set is empty (no attribute could be cut)")
        return self.ranked[0].map

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self) -> Iterator[RankedMap]:
        return iter(self.ranked)

    def describe(self) -> str:
        """Multi-line rendering of the whole result set."""
        if not self.ranked:
            return "(no maps)"
        blocks = []
        for rank, entry in enumerate(self.ranked, start=1):
            blocks.append(
                f"#{rank} score={entry.score:.3f}\n{entry.map.describe()}"
            )
        return "\n\n".join(blocks)


class Pipeline:
    """An ordered stage composition with generic per-stage timing."""

    def __init__(self, stages: Sequence[Stage]):
        if not stages:
            raise MapError("a pipeline needs at least one stage")
        self._stages = tuple(stages)

    @classmethod
    def default(cls) -> "Pipeline":
        """The native Section-3 pipeline (scope → … → ranking)."""
        return cls(default_stages())

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The composed stages, in execution order."""
        return self._stages

    def stage(self, name: str) -> Stage:
        """The first stage with ``name``; raises :class:`MapError`."""
        for stage in self._stages:
            if stage.name == name:
                return stage
        known = ", ".join(s.name for s in self._stages)
        raise MapError(f"pipeline has no stage {name!r}; stages: {known}")

    def replacing(self, name: str, stage: Stage) -> "Pipeline":
        """A new pipeline with the stage named ``name`` swapped out."""
        self.stage(name)  # raise early on unknown names
        return Pipeline(
            tuple(stage if s.name == name else s for s in self._stages)
        )

    def run(
        self,
        query: ConjunctiveQuery | None,
        context: ExecutionContext,
        cancel: "CancelToken | None" = None,
    ) -> MapSet:
        """Drive ``query`` through every stage and assemble the answer.

        ``cancel`` is an optional :class:`~repro.engine.cancel.
        CancelToken`; it is checked cooperatively *between* stages (the
        one place shared context state is guaranteed consistent), so a
        fired token raises :class:`~repro.engine.cancel.
        PipelineCancelled` carrying the count of completed stages and
        the name of the stage that never ran — and the context remains
        as reusable as after a completed run.  The token is also
        installed thread-locally on the context for the duration of the
        run, so cooperative code deeper in a stage may poll
        :meth:`~repro.engine.context.ExecutionContext.check_cancelled`.

        The answer's ``version`` is exactly the streaming version of the
        scope the run measured: the scope stage reads one backend and
        every later stage uses it, so an append landing mid-run changes
        nothing about this answer.  (A run with no scope table, such as
        the SQL-only engine's, reports the context's version.)
        """
        state = PipelineState(query=query if query is not None else ConjunctiveQuery())
        seconds: dict[str, float] = {}
        if cancel is not None:
            context.install_cancel(cancel)
        try:
            for index, stage in enumerate(self._stages):
                if cancel is not None:
                    cancel.check(
                        stages_completed=index, next_stage=stage.name
                    )
                started = time.perf_counter()
                stage.run(state, context)
                elapsed = time.perf_counter() - started
                seconds[stage.name] = seconds.get(stage.name, 0.0) + elapsed
        finally:
            if cancel is not None:
                context.install_cancel(None)
        timings = StageTimings(
            sampling=seconds.pop("sampling", 0.0),
            candidates=seconds.pop("candidates", 0.0),
            clustering=seconds.pop("clustering", 0.0),
            merging=seconds.pop("merging", 0.0),
            ranking=seconds.pop("ranking", 0.0),
            extra=tuple(sorted(seconds.items())),
        )
        return MapSet(
            query=state.query,
            ranked=tuple(state.ranked),
            clustering=state.clustering,
            timings=timings,
            n_rows_used=state.n_rows_used,
            fidelity=context.config.fidelity.spec(),
            version=(
                context.version if state.scope is None else state.scope.version
            ),
        )
