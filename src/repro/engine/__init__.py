"""The composable exploration engine.

One pipeline, many doors: every public entry point — the fluent
:func:`explorer` facade (and the sessions and prefetch policies built
over it), the anytime explorer, and the SQL-only gateway — drives the
same :class:`Pipeline` of pluggable :class:`Stage` objects over a
shared :class:`ExecutionContext`.

Layers, bottom up:

* :mod:`repro.engine.registry` — string-keyed strategy registries
  (numeric/categorical cuts, merges, linkages); the legacy enums are
  aliases whose values double as registry keys.
* :mod:`repro.engine.context` — :class:`ExecutionContext` carries the
  table, config, deterministic per-query RNG, and a memoized statistics
  cache (masks, assignments, joints, cut points) shared across stages
  and across queries on the same table.
* :mod:`repro.engine.stages` — the :class:`Stage` protocol and the five
  Section-3 stages (scope → candidates → clustering → merging →
  ranking).
* :mod:`repro.engine.pipeline` — the :class:`Pipeline` driver with
  generic per-stage timing, plus the :class:`MapSet` answer type.
* :mod:`repro.engine.contexts` — :class:`ContextRegistry`, the one
  LRU of shared contexts behind the service and every explorer.
* :mod:`repro.engine.facade` — the fluent, batch-capable front door.
"""

from repro.engine.backends import (
    CacheCounters,
    ExactBackend,
    SketchBackend,
    StatsBackend,
    make_backend,
    query_fingerprint,
    table_fingerprint,
)
from repro.engine.cancel import CancelToken, PipelineCancelled
from repro.engine.context import ExecutionContext
from repro.engine.contexts import ContextRegistry
from repro.engine.parallel import ShardedTable, build_sharded_backend
from repro.engine.pipeline import CANONICAL_STAGES, MapSet, Pipeline, StageTimings
from repro.engine.registry import (
    CATEGORICAL_ORDERS,
    LINKAGES,
    MERGES,
    NUMERIC_CUTS,
    StrategyRegistry,
    register_categorical_cut,
    register_linkage,
    register_merge,
    register_numeric_cut,
    strategy_key,
)
from repro.engine.stages import (
    CandidateStage,
    ClusteringStage,
    MergeStage,
    PipelineState,
    RankingStage,
    ScopeStage,
    Stage,
    default_stages,
)
from repro.engine.facade import Explorer, explorer

__all__ = [
    "CANONICAL_STAGES",
    "CATEGORICAL_ORDERS",
    "CacheCounters",
    "CancelToken",
    "CandidateStage",
    "ClusteringStage",
    "ContextRegistry",
    "ExactBackend",
    "ExecutionContext",
    "Explorer",
    "LINKAGES",
    "MERGES",
    "MapSet",
    "MergeStage",
    "NUMERIC_CUTS",
    "Pipeline",
    "PipelineCancelled",
    "PipelineState",
    "RankingStage",
    "ScopeStage",
    "ShardedTable",
    "SketchBackend",
    "Stage",
    "StageTimings",
    "StatsBackend",
    "StrategyRegistry",
    "build_sharded_backend",
    "default_stages",
    "explorer",
    "make_backend",
    "query_fingerprint",
    "table_fingerprint",
    "register_categorical_cut",
    "register_linkage",
    "register_merge",
    "register_numeric_cut",
    "strategy_key",
]
