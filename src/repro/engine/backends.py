"""Pluggable statistics backends: exact scans or bounded sketches.

Every pipeline stage reads its statistics — predicate masks, region
assignments, joint contingency tables, cut points — through one object
implementing the :class:`StatsBackend` protocol.  Two implementations
ship:

* :class:`ExactBackend` — every statistic computed from full-table
  masks with memoization.
* :class:`SketchBackend` — statistics answered from a bounded-size
  uniform reservoir of the table plus one-pass sketches from
  :mod:`repro.sketch`: per-attribute Greenwald–Khanna quantile
  summaries drive root-scope numeric cuts and Misra–Gries heavy
  hitters drive root-scope categorical orderings, while restricted
  scopes are measured over the reservoir rows.  Cost per request is
  bounded by the fidelity budget regardless of table size — the
  Section-5.1 "sampling and refinement" lever as a first-class
  execution mode.

The backend a context hands out is chosen by
:attr:`repro.core.config.AtlasConfig.fidelity`; one switch flips every
entry point (facade, sessions, anytime, service, REPL) between fidelities.

Determinism: a sketch backend's reservoir is the first ``budget_rows``
entries of a per-``(seed, table)`` permutation — deterministic for a
given configuration, *nested* across budgets (a larger budget extends
a smaller one's sample), which is what makes the anytime explorer's
progressive escalation comparable across ticks.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import zlib
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.config import AtlasConfig, Fidelity
from repro.core.contingency import joint_distribution_from_assignments
from repro.core.datamap import DataMap, assign_regions, covers_from_assignment
from repro.core.information import rajski_distance, variation_of_information
from repro.dataset.column import CategoricalColumn, NumericColumn, concat_taken
from repro.dataset.table import Table
from repro.engine.kernels import (
    KernelTimings,
    frequency_summary_from_codes,
    quantile_summary,
)
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery
from repro.sketch.state import SketchState, merge_row_positions, merge_summaries

#: Bounds on cached scope tables / per-table stat blocks; interactive
#: sessions revisit a handful of scopes, so a small FIFO is plenty.
#: Sampled scopes are materialized copies, so they are additionally
#: bounded by total cached rows (the base table is cached by reference
#: and costs nothing).
_MAX_SCOPES = 128
_MAX_SCOPE_ROWS = 4_000_000
_MAX_TABLE_STATS = 16
#: Per-memo bounds inside one backend block.  Row-sized arrays
#: (masks, assignments) dominate memory, so their FIFO caps come from a
#: byte budget divided by the per-entry size (clamped to [8, 256]
#: entries): on small tables the memos keep hundreds of entries, on a
#: 10M-row table an 8-byte-per-row assignment memo holds ~8 vectors.
#: Assignments are charged at their stored itemsize (1 byte per row
#: for the int8 vectors of maps under 127 regions).
#: Small per-region results (covers, joints, cuts) get a flat cap.
_ROW_ARRAY_BYTE_BUDGET = 512 * 1024 * 1024
_MIN_ROW_ARRAYS = 8
_MAX_ROW_ARRAYS = 256
_MAX_SMALL_ENTRIES = 4096
#: Counter budget for the per-attribute Misra–Gries frequency sketches;
#: columns with at most this many categories are summarized exactly.
_MG_CAPACITY = 256


def _row_array_cap(n_rows: int, bytes_per_row: int) -> int:
    """FIFO entry cap for a memo of row-sized arrays."""
    per_entry = max(1, n_rows * bytes_per_row)
    return max(
        _MIN_ROW_ARRAYS,
        min(_MAX_ROW_ARRAYS, _ROW_ARRAY_BYTE_BUDGET // per_entry),
    )


def _bounded_put(memo: dict, key, value, cap: int) -> None:
    """Insert with FIFO eviction once ``cap`` entries are reached."""
    while len(memo) >= cap:
        memo.pop(next(iter(memo)))
    memo[key] = value


@dataclasses.dataclass
class CacheCounters:
    """Hit/miss counters over every memo table of a backend."""

    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def order_sensitive_key(query: ConjunctiveQuery) -> tuple:
    """Cache key for results that depend on user-given value order.

    :class:`ConjunctiveQuery`/:class:`SetPredicate` equality is
    order-insensitive (set semantics), but the ``user_order``
    categorical strategy lays labels out in the order the user gave
    them — so caches of cut results (and whole answers) must key on the
    ordered values as well, or two set-equal queries with different
    value orders would share one result.
    """
    parts = []
    for predicate in sorted(query.predicates, key=lambda p: p.attribute):
        ordered = getattr(predicate, "ordered_values", None)
        parts.append(
            (predicate, tuple(ordered) if ordered is not None else None)
        )
    return tuple(parts)


def query_fingerprint(query: ConjunctiveQuery) -> int:
    """Stable, process-independent fingerprint of a query.

    Predicate order is irrelevant (queries compare as predicate sets),
    and ``zlib.crc32`` avoids Python's per-process string-hash salt.
    """
    canonical = "|".join(sorted(p.describe() for p in query.predicates))
    return zlib.crc32(canonical.encode("utf-8"))


@runtime_checkable
class StatsBackend(Protocol):
    """What every statistics provider owes the pipeline stages.

    Implementations answer the statistics requests of the Section-3
    stages; whether the answer comes from full-table scans
    (:class:`ExactBackend`) or bounded samples and one-pass sketches
    (:class:`SketchBackend`) is invisible to the stages — the
    :attr:`~repro.core.config.AtlasConfig.fidelity` setting picks.
    """

    #: Short backend family name (``"exact"`` / ``"sketch"``); the
    #: per-backend metrics aggregate under it.
    kind: str

    @property
    def table(self) -> Table:
        """The table the statistics describe."""
        ...  # pragma: no cover - protocol stub

    @property
    def effective_table(self) -> Table:
        """The rows estimates are measured on (may be a sample)."""
        ...  # pragma: no cover - protocol stub

    @property
    def n_rows(self) -> int:
        """Rows backing every estimate (``effective_table.n_rows``)."""
        ...  # pragma: no cover - protocol stub

    @property
    def version(self) -> int:
        """Streaming version of the table being described."""
        ...  # pragma: no cover - protocol stub

    def advance(
        self,
        new_table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> "StatsBackend":
        """A successor backend describing an appended version of the
        table; this backend is left untouched (it still describes its
        own version)."""
        ...  # pragma: no cover - protocol stub

    def query_mask(self, query: ConjunctiveQuery) -> np.ndarray:
        """Row mask of a conjunctive query over the effective rows."""
        ...  # pragma: no cover - protocol stub

    def assignment(self, data_map: DataMap) -> np.ndarray:
        """Region index per effective row (Definition 2)."""
        ...  # pragma: no cover - protocol stub

    def covers(self, data_map: DataMap) -> np.ndarray:
        """Cover of each region over the effective rows."""
        ...  # pragma: no cover - protocol stub

    def joint(
        self,
        map_a: DataMap,
        map_b: DataMap,
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ) -> np.ndarray:
        """Joint distribution of two maps' underlying variables."""
        ...  # pragma: no cover - protocol stub

    def distance_matrix(
        self,
        maps: tuple[DataMap, ...],
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ):
        """Pairwise VI / Rajski distances between maps."""
        ...  # pragma: no cover - protocol stub

    def cut_map(
        self, query: ConjunctiveQuery, attribute: str, config: AtlasConfig
    ) -> DataMap:
        """``CUT_attribute(query)`` at this backend's fidelity."""
        ...  # pragma: no cover - protocol stub

    def snapshot(self) -> dict:
        """Usage/cache counters of this backend (JSON-ready)."""
        ...  # pragma: no cover - protocol stub


def table_fingerprint(table: Table) -> int:
    """Stable fingerprint of a table's identity-relevant shape.

    Used to derive per-``(seed, table)`` sampling RNG, so sketch
    backends draw the same reservoir for the same table in any process.
    Streaming versions are part of the identity (a post-append table
    must never collide with its pre-append self); version 0 keeps the
    historical canonical form so existing fingerprints are unchanged.
    """
    canonical = f"{table.name}|{table.n_rows}|" + ",".join(table.column_names)
    if table.version:
        canonical += f"|v{table.version}"
    return zlib.crc32(canonical.encode("utf-8"))


def _reservoir_name(table: Table, fidelity: Fidelity) -> str:
    """The name of a sketch backend's reservoir table."""
    return f"{table.name}_sketch{fidelity.budget_rows}"


def check_advance(table: Table, new_table: Table) -> None:
    """Raise :class:`MapError` unless ``new_table`` is an appended
    version of ``table`` (higher version, same schema, no fewer rows)."""
    if new_table.version <= table.version:
        raise MapError(
            f"cannot advance from version {table.version} to "
            f"{new_table.version}; versions must increase"
        )
    if new_table.column_names != table.column_names:
        raise MapError(
            "cannot advance onto a table with a different schema "
            f"({table.column_names} vs {new_table.column_names})"
        )
    if new_table.n_rows < table.n_rows:
        raise MapError(
            "streaming tables are append-only: cannot advance from "
            f"{table.n_rows} to {new_table.n_rows} rows"
        )


class ExactBackend:
    """Memoized exact statistics over one immutable table.

    Every method mirrors an existing computation exactly
    (:meth:`ConjunctiveQuery.mask`, :meth:`DataMap.assign`,
    :meth:`DataMap.covers`, :func:`~repro.core.distance.distance_matrix`)
    so cached and uncached paths are interchangeable; the engine tests
    assert that equivalence.  Cached arrays are frozen
    (``writeable=False``) — callers that need to mutate must copy.

    Thread safety: every memo lookup/insert (and the counters) runs
    under ``lock``; the statistic itself is computed *outside* the lock,
    so concurrent workers (the service pool) never serialize on numpy
    work — a race at worst computes one value twice and the idempotent
    insert wins.  :class:`~repro.engine.context.ExecutionContext` passes
    one lock shared by all its stat blocks so nested memo calls and the
    shared counters stay consistent; a standalone backend gets its own.

    Streaming: the backend describes one table version for its whole
    life.  :meth:`advance` returns a fresh successor over the appended
    table, so no memo here ever holds a statistic of other rows.
    """

    kind = "exact"

    def __init__(
        self,
        table: Table,
        counters: CacheCounters | None = None,
        lock: threading.Lock | None = None,
    ):
        self._table = table
        self._lock = lock if lock is not None else threading.Lock()
        self.counters = counters if counters is not None else CacheCounters()
        self.usage: dict[str, int] = {}  # guarded-by: _lock
        self._predicate_masks: dict[object, np.ndarray] = {}  # guarded-by: _lock
        self._query_masks: dict[ConjunctiveQuery, np.ndarray] = {}  # guarded-by: _lock
        self._assignments: dict[DataMap, np.ndarray] = {}  # guarded-by: _lock
        self._covers: dict[DataMap, np.ndarray] = {}  # guarded-by: _lock
        self._joints: dict[tuple, np.ndarray] = {}  # guarded-by: _lock
        self._cuts: dict[tuple, DataMap] = {}  # guarded-by: _lock
        self._mask_cap = _row_array_cap(table.n_rows, 1)

    @property
    def table(self) -> Table:
        """The table the statistics describe."""
        return self._table

    @property
    def effective_table(self) -> Table:
        """The rows this backend actually measures (here: all of them)."""
        return self._table

    @property
    def n_rows(self) -> int:
        """Rows backing every estimate this backend hands out."""
        return self._table.n_rows

    @property
    def version(self) -> int:
        """Streaming version of the table being described."""
        return self._table.version

    def _use(self, name: str) -> None:  # holds-lock: _lock
        """Bump the per-request usage counter (caller holds the lock)."""
        self.usage[name] = self.usage.get(name, 0) + 1

    # ------------------------------------------------------------------ #
    # Streaming maintenance
    # ------------------------------------------------------------------ #

    def advance(
        self,
        new_table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> "ExactBackend":
        """A fresh backend over an appended version of the table.

        Every exact memo is row-backed, so only the usage counters
        carry over; the successor shares this backend's counters and
        lock.  (``rng`` is accepted for signature parity with
        :meth:`SketchBackend.advance`; exact maintenance draws nothing.)
        """
        del rng
        check_advance(self._table, new_table)
        successor = ExactBackend(new_table, self.counters, self._lock)
        with self._lock:
            successor.usage.update(self.usage)
            successor._use("advance")
        return successor

    # ------------------------------------------------------------------ #
    # Masks
    # ------------------------------------------------------------------ #

    def predicate_mask(self, predicate) -> np.ndarray:
        """Row mask of one predicate (frozen array, cached)."""
        with self._lock:
            self._use("predicate_mask")
            cached = self._predicate_masks.get(predicate)
            if cached is not None:
                self.counters.hits += 1
                return cached
            self.counters.misses += 1
        mask = np.asarray(predicate.mask(self._table), dtype=bool)
        mask.flags.writeable = False
        with self._lock:
            _bounded_put(
                self._predicate_masks, predicate, mask, self._mask_cap
            )
        return mask

    def query_mask(self, query: ConjunctiveQuery) -> np.ndarray:
        """Row mask of a conjunctive query, AND of cached predicate masks."""
        with self._lock:
            self._use("query_mask")
            cached = self._query_masks.get(query)
            if cached is not None:
                self.counters.hits += 1
                return cached
            self.counters.misses += 1
        result = np.ones(self._table.n_rows, dtype=bool)
        for predicate in query.predicates:
            mask = self.predicate_mask(predicate)
            np.logical_and(result, mask, out=result)
        result.flags.writeable = False
        with self._lock:
            _bounded_put(self._query_masks, query, result, self._mask_cap)
        return result

    # ------------------------------------------------------------------ #
    # Map statistics
    # ------------------------------------------------------------------ #

    def assignment(self, data_map: DataMap) -> np.ndarray:
        """Region index per row (Definition 2), cached per map.

        Semantics match :meth:`DataMap.assign`: first matching region
        wins, uncovered rows get :data:`~repro.core.datamap.ESCAPE`.
        """
        with self._lock:
            self._use("assignment")
            cached = self._assignments.get(data_map.regions)
            if cached is not None:
                self.counters.hits += 1
                return cached
            self.counters.misses += 1
        assignment = assign_regions(
            data_map.regions, self._table, self.query_mask
        )
        assignment.flags.writeable = False
        cap = _row_array_cap(self._table.n_rows, assignment.itemsize)
        with self._lock:
            _bounded_put(self._assignments, data_map.regions, assignment, cap)
        return assignment

    def covers(self, data_map: DataMap) -> np.ndarray:
        """Cover of each region (matches :meth:`DataMap.covers`), cached."""
        with self._lock:
            self._use("covers")
            cached = self._covers.get(data_map.regions)
            if cached is not None:
                self.counters.hits += 1
                return cached
            self.counters.misses += 1
        result = covers_from_assignment(
            self.assignment(data_map), data_map.n_regions
        )
        result.flags.writeable = False
        with self._lock:
            _bounded_put(
                self._covers, data_map.regions, result, _MAX_SMALL_ENTRIES
            )
        return result

    def joint(
        self,
        map_a: DataMap,
        map_b: DataMap,
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ) -> np.ndarray:
        """Joint distribution of two maps' underlying variables, cached.

        ``row_indices`` restricts the estimate to a subset of rows (the
        clustering stage scores dependency over the tuples the user
        query describes); ``scope_key`` names that subset in the cache
        key.  A restricted estimate without a ``scope_key`` is computed
        but never cached — caching it under the full-table key would
        poison later unrestricted lookups.  Assignment vectors are
        computed once over the *full* table and sliced — region
        membership is row-wise, so slicing commutes with selection.
        """
        with self._lock:
            self._use("joint")
        assign_a = self.assignment(map_a)
        assign_b = self.assignment(map_b)
        if row_indices is not None:
            assign_a = assign_a[row_indices]
            assign_b = assign_b[row_indices]
        return self._joint_from(
            map_a, map_b, assign_a, assign_b,
            scope_key, cacheable=row_indices is None or scope_key is not None,
        )

    def _joint_from(
        self,
        map_a: DataMap,
        map_b: DataMap,
        assign_a: np.ndarray,
        assign_b: np.ndarray,
        scope_key: object,
        cacheable: bool,
    ) -> np.ndarray:
        """Cache-aware joint distribution from prepared assignments."""
        if cacheable:
            key = (map_a.regions, map_b.regions, scope_key)
            with self._lock:
                cached = self._joints.get(key)
                if cached is not None:
                    self.counters.hits += 1
                    return cached
                transposed = self._joints.get(
                    (map_b.regions, map_a.regions, scope_key)
                )
                if transposed is not None:
                    self.counters.hits += 1
                    return transposed.T
                self.counters.misses += 1
        else:
            with self._lock:
                self.counters.misses += 1
        joint = joint_distribution_from_assignments(
            assign_a, assign_b, map_a.n_regions, map_b.n_regions
        )
        if cacheable:
            joint.flags.writeable = False
            with self._lock:
                _bounded_put(self._joints, key, joint, _MAX_SMALL_ENTRIES)
        return joint

    def distance_matrix(
        self,
        maps: tuple[DataMap, ...],
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ):
        """Pairwise VI / Rajski distances with memoized joints.

        Equivalent to :func:`repro.core.distance.distance_matrix` over
        ``table[row_indices]``, but every joint distribution is cached
        so repeated queries on the same table skip the quadratic
        recomputation.
        """
        from repro.core.distance import MapDistanceMatrix

        if not maps:
            raise MapError("need at least one map")
        with self._lock:
            self._use("distance_matrix")
        n = len(maps)
        # Slice each assignment once up front — per-pair slicing would
        # copy every assignment O(n) times.
        if row_indices is None:
            assignments = [self.assignment(m) for m in maps]
        else:
            assignments = [self.assignment(m)[row_indices] for m in maps]
        cacheable = row_indices is None or scope_key is not None
        raw = np.zeros((n, n), dtype=np.float64)
        scaled = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                joint = self._joint_from(
                    maps[i], maps[j], assignments[i], assignments[j],
                    scope_key, cacheable,
                )
                raw[i, j] = raw[j, i] = variation_of_information(joint)
                scaled[i, j] = scaled[j, i] = rajski_distance(joint)
        return MapDistanceMatrix(maps=maps, distances=raw, normalized=scaled)

    # ------------------------------------------------------------------ #
    # Cuts and column statistics
    # ------------------------------------------------------------------ #

    def cut_map(
        self, query: ConjunctiveQuery, attribute: str, config: AtlasConfig
    ) -> DataMap:
        """``CUT_attribute(query)`` with cut points memoized per scope.

        The cache key covers the config fields the built-in cuts
        depend on plus the *resolved* strategy callables, so one
        backend can serve contexts with different configurations and a
        strategy re-registered with ``overwrite=True`` is never served
        stale results.  (A custom strategy reading further config
        fields should be registered under a name that encodes them.)
        """
        from repro.engine.registry import CATEGORICAL_ORDERS, NUMERIC_CUTS

        key = (
            order_sensitive_key(query),
            attribute,
            config.n_splits,
            NUMERIC_CUTS.get(config.numeric_strategy),
            CATEGORICAL_ORDERS.get(config.categorical_strategy),
            config.fidelity.epsilon,
        )
        with self._lock:
            self._use("cut_map")
            cached = self._cuts.get(key)
            if cached is not None:
                self.counters.hits += 1
                return cached
            self.counters.misses += 1
        from repro.core.cut import cut

        result = cut(
            self._table, query, attribute, config,
            region_mask=self.query_mask(query),
        )
        with self._lock:
            _bounded_put(self._cuts, key, result, _MAX_SMALL_ENTRIES)
        return result

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Usage/cache counters of this backend (JSON-ready)."""
        with self._lock:
            return {
                "kind": self.kind,
                "rows": self.n_rows,
                "version": self.version,
                "usage": dict(self.usage),
                "hits": self.counters.hits,
                "misses": self.counters.misses,
            }


class SketchBackend:
    """Approximate statistics from a bounded reservoir plus sketches.

    The backend materializes a uniform reservoir of at most
    ``fidelity.budget_rows`` rows (the first entries of a deterministic
    per-``(seed, table)`` permutation, so budgets nest) and answers

    * ``query_mask`` / ``assignment`` / ``covers`` / ``joint`` /
      ``distance_matrix`` — measured over the reservoir rows through an
      inner :class:`ExactBackend`, so every estimate is bounded by the
      budget regardless of table size;
    * ``cut_map`` on the *root scope* (no predicates) — from memoized
      one-pass summaries: per-attribute Greenwald–Khanna quantile
      sketches (``fidelity.epsilon`` rank error, measured over the
      reservoir — sampling error comes on top) for equi-depth numeric
      cut points, Misra–Gries heavy hitters for categorical frequency
      orderings — built once per attribute and reused by every query
      and split count;
    * ``cut_map`` on restricted scopes — over the reservoir rows with
      the configured strategy (cost bounded by the budget).

    The produced :class:`DataMap` shapes are identical to the exact
    backend's, so ranked answers are comparable across fidelities (the
    E18 agreement measurement relies on this).

    Where the state came from is constructor *data*, not a subclass:
    the sharded build (:func:`repro.engine.parallel.build_sharded_backend`)
    and the warm restore (:func:`repro.store.warm.restore_backend`) hand
    over a :class:`~repro.sketch.state.SketchState` whose sample holds
    the reservoir's row positions and whose summaries seed the memos.
    The reservoir is ``table.take(positions)``, or the table itself
    when the positions cover it; over a stored table each of its
    columns gathers its rows on first read, so a restored backend
    fetches only the columns its queries read.  The state's
    ``full_scan`` says whether those summaries observed every table row
    (a sharded build) or only the reservoir; it is fixed here and
    decides the rate at which :meth:`advance` thins appended rows.  Its
    ``provenance`` is merged into :meth:`snapshot` as is (the
    ``"parallel"`` / ``"warm"`` blocks).  :meth:`export_state` hands the
    same value back.

    The table, reservoir and sample positions are fixed at
    construction: a backend describes one table version, and
    :meth:`advance` returns a successor for the next one.  Only the
    lazily built summaries and memos grow afterwards.
    """

    kind = "sketch"

    def __init__(
        self,
        table: Table,
        fidelity: Fidelity,
        rng: np.random.Generator | int | None = None,
        counters: CacheCounters | None = None,
        lock: threading.Lock | None = None,
        *,
        state: SketchState | None = None,
    ):
        if not fidelity.is_sketch:
            raise MapError(
                f"SketchBackend needs a sketch fidelity, got {fidelity.spec()!r}"
            )
        if state is None:
            if fidelity.budget_rows < table.n_rows:
                rows = np.random.default_rng(rng).permutation(table.n_rows)
                positions = np.sort(rows[: fidelity.budget_rows])
            else:
                positions = np.arange(table.n_rows)  # the budget covers everything
            state = SketchState(positions, table.n_rows, version=table.version)
        # A handed-over state's caller vouches its sample is a uniform
        # ``budget_rows`` sample of ``table`` at ``table.version``.
        reservoir = table  # when the positions are all of its rows
        if len(state.sample) < table.n_rows:
            reservoir = table.take(
                state.sample, name=_reservoir_name(table, fidelity)
            )
        self._install(table, fidelity, state, reservoir, counters, lock)

    def _install(  # holds-lock: _lock
        self,
        table: Table,
        fidelity: Fidelity,
        state: SketchState,
        reservoir: Table,
        counters: CacheCounters | None,
        lock: threading.Lock | None,
    ) -> None:
        """Set every field over ``reservoir``, the rows of ``table`` at
        ``state.sample``: ``table`` itself when they are all of its rows,
        so identity-keyed memos line up.  :meth:`advance` calls it on a
        bare instance, holding ``lock``, with a reservoir built from the
        old one; ``__init__`` calls it before the backend is shared."""
        self._table = table
        self._fidelity = fidelity
        self._kernel_timings = KernelTimings()  # guarded-by: _lock
        self._inner = ExactBackend(reservoir, counters=counters, lock=lock)
        self._lock = self._inner._lock
        self._positions = state.sample
        self.counters = self._inner.counters
        self.usage = self._inner.usage
        # Seeded before the backend is shared.
        self._quantile_sketches = dict(state.quantiles)  # guarded-by: _lock
        self._frequency_sketches = dict(state.frequencies)  # guarded-by: _lock
        self._token_sketches = dict(state.tokens)  # guarded-by: _lock
        self._root_cuts: dict[tuple, DataMap] = {}  # guarded-by: _lock
        self._full_scan = state.full_scan
        self._provenance = dict(state.provenance)

    @property
    def table(self) -> Table:
        """The (full) table the statistics approximate."""
        return self._table

    @property
    def shard_seconds(self) -> tuple[float, ...]:
        """Per-shard scan seconds of the build, in shard order."""
        return tuple(self._parallel_provenance().get("shard_seconds", ()))

    @property
    def shard_servers(self) -> tuple[int, ...]:
        """Server index per shard, in shard order (cluster builds)."""
        return tuple(self._parallel_provenance().get("shard_servers", ()))

    def _parallel_provenance(self) -> Mapping[str, object]:
        """The build's ``"parallel"`` block (empty unless sharded)."""
        return self._provenance.get("parallel", {})

    @property
    def effective_table(self) -> Table:
        """The reservoir rows every estimate is measured on."""
        return self._inner.table

    @property
    def n_rows(self) -> int:
        """Rows backing every estimate this backend hands out."""
        return self._inner.table.n_rows

    @property
    def fidelity(self) -> Fidelity:
        """The budget this backend answers under."""
        return self._fidelity

    @property
    def version(self) -> int:
        """Streaming version of the table being approximated."""
        return self._table.version

    # ------------------------------------------------------------------ #
    # Streaming maintenance
    # ------------------------------------------------------------------ #

    def advance(
        self,
        new_table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> "SketchBackend":
        """A successor backend over an appended version of the table.

        Instead of rebuilding from scratch (a full-table permutation
        plus one-pass sketch builds), maintenance is proportional to the
        *delta*:

        * the sample is **topped up** by the merge rule every sample
          merge shares (:func:`~repro.sketch.state.merge_row_positions`,
          the shard fold's rule) — the survivors from the old sample
          are weighted by old-rows vs delta-rows, the rest drawn
          uniformly from the delta, so the result stays a uniform
          sample of the union; the successor's reservoir is the old
          reservoir's surviving rows followed by the kept delta rows
          (equal to ``new_table.take`` of the merged positions, since
          every delta position follows every old one);
        * every already-built per-attribute GK / Misra–Gries summary is
          **merged** (:func:`~repro.sketch.state.merge_summaries`) with
          a sketch built from a *rate-matched* uniform
          subsample of the delta (each delta row kept with the
          probability the existing summary's rows were kept, i.e.
          ``reservoir rows / table rows``), so old and new rows stay
          equally weighted — the merged summary approximates the same
          distribution a rebuild would, even when the appended rows
          drift.  The maintained rate never falls below a fresh
          build's (the base table only grows), so the summaries always
          reflect at least as many rows per capita as a rebuild.

        Sketches not built yet, and token summaries (suggestions and
        warm state, never ranked answers), rebuild lazily from the new
        reservoir.  The successor shares this backend's counters and
        lock and carries over its usage (plus ``"advance"``) and kernel
        meters; this backend keeps answering for its own version.
        Maintenance is local: no scan venue is consulted.
        """
        check_advance(self._table, new_table)
        state = self.export_state()
        generator = np.random.default_rng(rng)
        n_old, delta_n = state.n_rows, new_table.n_rows - state.n_rows
        # The top-up draws before the delta thinning below: the draw
        # order is part of the recipe, it fixes every maintained bit.
        positions, survivors = merge_row_positions(
            state.sample, n_old, np.arange(n_old, new_table.n_rows), delta_n,
            self._fidelity.budget_rows, generator,
        )
        n_survivors = len(state.sample) if survivors is None else len(survivors)
        quantiles, frequencies = state.quantiles, state.frequencies
        timings = KernelTimings()
        if delta_n:
            # Delta summaries over the rows kept at the rate the current
            # summaries' rows were: every row for full-scan summaries,
            # ``sample / table`` for reservoir-built ones.  Raw delta
            # counts would over-weight appends by ``table / budget`` and
            # skew cut points under drift.
            rate = len(state.sample) / max(1, n_old)
            kept = np.arange(n_old, new_table.n_rows)
            if not state.full_scan and rate < 1.0:
                kept = n_old + np.flatnonzero(generator.random(delta_n) < rate)
            delta_quantiles = {
                attribute: quantile_summary(
                    new_table.numeric(attribute).data[kept],
                    sketch.epsilon,
                    timings=timings,
                )
                for attribute, sketch in quantiles.items()
            }
            delta_frequencies = {}
            for attribute, sketch in frequencies.items():
                column = new_table.categorical(attribute)
                delta_frequencies[attribute] = frequency_summary_from_codes(
                    column.codes[kept],
                    list(column.categories),
                    sketch.capacity,  # the existing sketch's capacity
                    timings=timings,
                )
            quantiles = merge_summaries(quantiles, delta_quantiles)
            frequencies = merge_summaries(frequencies, delta_frequencies)
        reservoir = new_table  # when the positions cover it
        if len(positions) < new_table.n_rows:
            head, added = self._inner.table, positions[n_survivors:]
            reservoir = new_table._derived(
                [
                    concat_taken(head.column(name), survivors, new_table.column(name), added)
                    for name in new_table.column_names
                ],
                _reservoir_name(new_table, self._fidelity),
            )
        state = dataclasses.replace(
            state,
            sample=positions,
            n_rows=new_table.n_rows,
            quantiles=quantiles,
            frequencies=frequencies,
            tokens={},
            version=new_table.version,
        )
        successor = SketchBackend.__new__(SketchBackend)
        with self._lock:  # the successor's lock too
            successor._install(
                new_table, self._fidelity, state, reservoir, self.counters, self._lock
            )
            successor.usage.update(self.usage)
            successor._use("advance")
            successor._kernel_timings.merge(self._kernel_timings)
            successor._kernel_timings.merge(timings)
        return successor

    # ------------------------------------------------------------------ #
    # Delegated statistics (bounded by the reservoir)
    # ------------------------------------------------------------------ #

    def predicate_mask(self, predicate) -> np.ndarray:
        """Predicate row mask over the reservoir rows."""
        return self._inner.predicate_mask(predicate)

    def query_mask(self, query: ConjunctiveQuery) -> np.ndarray:
        """Query row mask over the reservoir rows."""
        return self._inner.query_mask(query)

    def assignment(self, data_map: DataMap) -> np.ndarray:
        """Region index per reservoir row."""
        return self._inner.assignment(data_map)

    def covers(self, data_map: DataMap) -> np.ndarray:
        """Estimated region covers (reservoir counts)."""
        return self._inner.covers(data_map)

    def joint(
        self,
        map_a: DataMap,
        map_b: DataMap,
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ) -> np.ndarray:
        """Estimated joint distribution over the reservoir rows."""
        return self._inner.joint(map_a, map_b, row_indices, scope_key)

    def distance_matrix(
        self,
        maps: tuple[DataMap, ...],
        row_indices: np.ndarray | None = None,
        scope_key: object = None,
    ):
        """Estimated pairwise VI / Rajski distances over the reservoir."""
        return self._inner.distance_matrix(maps, row_indices, scope_key)

    # ------------------------------------------------------------------ #
    # Sketch-answered cuts
    # ------------------------------------------------------------------ #

    def cut_map(
        self, query: ConjunctiveQuery, attribute: str, config: AtlasConfig
    ) -> DataMap:
        """``CUT_attribute(query)`` answered at sketch fidelity.

        Root-scope requests (no predicates — the first query of every
        session, and the most repeated one) come from the memoized
        per-attribute sketches; restricted scopes are cut over the
        reservoir rows with the configured strategy.
        """
        from repro.engine.registry import strategy_key

        if not query.predicates:
            column = self._inner.table.column(attribute)
            if isinstance(column, NumericColumn) and strategy_key(
                config.numeric_strategy
            ) in ("median", "sketch"):
                # Equi-depth requests answered by the GK summary; other
                # strategies (equiwidth, twomeans, custom) keep their
                # semantics over the reservoir rows.
                return self._root_numeric_cut(query, attribute, config)
            if isinstance(column, CategoricalColumn):
                return self._root_categorical_cut(query, attribute, config)
        return self._inner.cut_map(query, attribute, config)

    def quantile_sketch(self, attribute: str):
        """The memoized per-attribute GK summary (built on first use)."""
        with self._lock:
            cached = self._quantile_sketches.get(attribute)
        if cached is not None:
            return cached
        timings = KernelTimings()
        sketch = quantile_summary(
            self._inner.table.numeric(attribute).data,
            self._fidelity.epsilon,
            timings=timings,
        )
        with self._lock:
            self._kernel_timings.merge(timings)
            return self._quantile_sketches.setdefault(attribute, sketch)

    def frequency_sketch(self, attribute: str):
        """The memoized per-attribute Misra–Gries summary."""
        with self._lock:
            cached = self._frequency_sketches.get(attribute)
        if cached is not None:
            return cached
        column = self._inner.table.column(attribute)
        if not isinstance(column, CategoricalColumn):
            raise MapError(
                f"column {attribute!r} is {column.kind}, expected categorical"
            )
        categories = list(column.categories)
        timings = KernelTimings()
        sketch = frequency_summary_from_codes(
            column.codes,
            categories,
            max(1, min(_MG_CAPACITY, len(categories))),
            timings=timings,
        )
        with self._lock:
            self._kernel_timings.merge(timings)
            return self._frequency_sketches.setdefault(attribute, sketch)

    def token_sketch(self, attribute: str):
        """The memoized per-attribute token-frequency summary.

        A Misra–Gries sketch over the *tokens* of the reservoir's
        labels (:func:`repro.query.predicate.tokenize_text`), weighted
        by how many reservoir rows carry each label — the text analogue
        of :meth:`frequency_sketch`.  Heavy-hitter tokens seed MATCH
        suggestions (the REPL's ``tokens`` command) and travel in
        persisted warm-start summaries.
        """
        from repro.query.predicate import tokenize_text
        from repro.sketch.frequency import MisraGriesSketch

        with self._lock:
            cached = self._token_sketches.get(attribute)
        if cached is not None:
            return cached
        column = self._inner.table.column(attribute)
        if not isinstance(column, CategoricalColumn):
            raise MapError(
                f"column {attribute!r} is {column.kind}, expected categorical"
            )
        label_counts = np.bincount(
            column.codes[column.codes >= 0],
            minlength=len(column.categories),
        )
        token_counts: dict[str, int] = {}
        for code, label in enumerate(column.categories):
            weight = int(label_counts[code])
            if not weight:
                continue
            for token in tokenize_text(label):
                token_counts[token] = token_counts.get(token, 0) + weight
        sketch = MisraGriesSketch(
            max(1, min(_MG_CAPACITY, max(1, len(token_counts))))
        )
        sketch.extend_counts(token_counts)
        with self._lock:
            return self._token_sketches.setdefault(attribute, sketch)

    def export_state(self) -> SketchState:
        """The built state, in one lock trip.

        The reservoir's row positions plus every summary built *so
        far* — a backend constructed over the same table with exactly
        this state answers like this one does, and summaries missing
        from it simply rebuild lazily from the (identical) reservoir.
        What a warm-start summary persists, and what :meth:`advance`
        merges appended rows into.
        """
        with self._lock:
            return SketchState(
                sample=self._positions,
                n_rows=self._table.n_rows,
                quantiles=dict(self._quantile_sketches),
                frequencies=dict(self._frequency_sketches),
                tokens=dict(self._token_sketches),
                version=self._table.version,
                full_scan=self._full_scan,
                provenance=self._provenance,
            )

    def _root_cut_cached(self, key: tuple) -> DataMap | None:
        """The memoized root cut under ``key``, or None (counted)."""
        with self._lock:
            self._use("cut_map")
            cached = self._root_cuts.get(key)
            if cached is not None:
                self.counters.hits += 1
            else:
                self.counters.misses += 1
            return cached

    def _root_numeric_cut(
        self, query: ConjunctiveQuery, attribute: str, config: AtlasConfig
    ) -> DataMap:
        """Equi-depth root cut from the per-attribute quantile sketch."""
        from repro.core.cut import _clean_cut_points, _numeric_subpredicates

        key = ("num", attribute, config.n_splits, self._fidelity.epsilon)
        cached = self._root_cut_cached(key)
        if cached is not None:
            return cached
        trivial = DataMap([query], attributes=[attribute], label=f"cut:{attribute}")
        sketch = self.quantile_sketch(attribute)
        result = trivial
        if sketch.count >= 2:
            low, high = sketch.query(0.0), sketch.query(1.0)
            if low < high:
                points = [
                    sketch.query(j / config.n_splits)
                    for j in range(1, config.n_splits)
                ]
                points = _clean_cut_points(points, None, low, high)
                if points:
                    predicates = _numeric_subpredicates(None, attribute, points)
                    result = DataMap(
                        [query.with_predicate(p) for p in predicates],
                        attributes=[attribute],
                        label=f"cut:{attribute}",
                    )
        with self._lock:
            _bounded_put(self._root_cuts, key, result, _MAX_SMALL_ENTRIES)
        return result

    def _root_categorical_cut(
        self, query: ConjunctiveQuery, attribute: str, config: AtlasConfig
    ) -> DataMap:
        """Root cut with label order/mass from the heavy-hitters sketch."""
        from repro.core.cut import balanced_label_groups, ordered_labels
        from repro.engine.registry import CATEGORICAL_ORDERS
        from repro.query.predicate import SetPredicate

        order = CATEGORICAL_ORDERS.get(config.categorical_strategy)
        key = ("cat", attribute, config.n_splits, order)
        cached = self._root_cut_cached(key)
        if cached is not None:
            return cached
        trivial = DataMap([query], attributes=[attribute], label=f"cut:{attribute}")
        column = self._inner.table.column(attribute)
        admitted = list(column.categories)
        result = trivial
        if len(admitted) >= 2:
            estimates = self.frequency_sketch(attribute).heavy_hitters()
            counts = {label: estimates.get(label, 0) for label in admitted}
            ordered = ordered_labels(config.categorical_strategy, admitted, counts)
            groups = balanced_label_groups(ordered, counts, config.n_splits)
            if len(groups) >= 2:
                result = DataMap(
                    [
                        query.with_predicate(SetPredicate(attribute, group))
                        for group in groups
                    ],
                    attributes=[attribute],
                    label=f"cut:{attribute}",
                )
        with self._lock:
            _bounded_put(self._root_cuts, key, result, _MAX_SMALL_ENTRIES)
        return result

    def _use(self, name: str) -> None:
        """Bump the usage counter (caller holds the lock)."""
        self._inner._use(name)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Usage/cache counters plus sketch and build provenance
        (JSON-ready)."""
        with self._lock:
            return {
                "kind": self.kind,
                "rows": self.n_rows,
                "version": self.version,
                "table_rows": self._table.n_rows,
                "budget_rows": self._fidelity.budget_rows,
                "epsilon": self._fidelity.epsilon,
                "quantile_sketches": len(self._quantile_sketches),
                "frequency_sketches": len(self._frequency_sketches),
                "token_sketches": len(self._token_sketches),
                "kernel_nanos": self._kernel_timings.as_dict(),
                "usage": dict(self.usage),
                "hits": self.counters.hits,
                "misses": self.counters.misses,
                **copy.deepcopy(self._provenance),
            }


def make_backend(
    table: Table,
    fidelity: Fidelity,
    rng: np.random.Generator | int | None = None,
    counters: CacheCounters | None = None,
    lock: threading.Lock | None = None,
) -> "ExactBackend | SketchBackend":
    """Construct the backend a fidelity setting asks for."""
    if fidelity.is_sketch:
        return SketchBackend(table, fidelity, rng=rng, counters=counters, lock=lock)
    return ExactBackend(table, counters=counters, lock=lock)
