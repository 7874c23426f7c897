"""Sharded parallel exploration: multi-core statistics with mergeable
per-shard summaries.

The north star asks the system to run "as fast as the hardware allows",
yet until this module every statistics build — exact or sketch — ran on
a single core.  PR 3 made the sketch substrate *mergeable*
(:meth:`ReservoirSampler.merge`, :meth:`GKQuantileSketch.merge`,
:meth:`MisraGriesSketch.merge`) and PR 4 proved the merge rules under
streaming; this module cashes that in with the classic scan/merge split
of parallel analytical engines:

1. :class:`ShardedTable` partitions the table into contiguous
   **row-range shards** (machine-independent boundaries).
2. A :class:`ScanVenue` — the in-process :class:`InlineVenue`, the
   ``multiprocessing`` :class:`ForkVenue`, or a cluster's
   :class:`~repro.cluster.coordinator.ClusterCoordinator` — builds the
   per-shard statistics: a uniform row sample of the shard plus
   **full-scan** GK quantile / Misra–Gries frequency summaries over
   every shard row (higher fidelity than the reservoir-built summaries
   of the unsharded path, whose sampling error comes on top of the
   sketch error).
3. :func:`build_sharded_backend` folds the per-shard results **in shard
   order** with the PR-3 merge rules — hypergeometric reservoir merging
   for the row samples, ``GKQuantileSketch.merge`` /
   ``MisraGriesSketch.merge`` for the summaries — and seeds one
   :class:`~repro.engine.backends.SketchBackend` with them, which the
   existing pipeline consumes unchanged.

The venue is never part of the statistical recipe: a new place to run
the scans is one more :class:`ScanVenue`, never a second build function
or a backend subclass.

Determinism: every random draw comes from a generator derived exactly
like :meth:`ExecutionContext.child_rng` from ``(config.seed, tag)``,
with tags keyed by **shard index** (``"shard:3:<table>"``,
``"shard-merge:3:<table>"``).  Shard boundaries and merge order depend
only on ``(table, shards)``, never on the worker count — so serial,
2-worker, and 4-worker runs produce bit-identical answers, and the
worker count is a pure wall-clock knob (the E20 benchmark and the
determinism property tests assert this).

Streaming: appended rows land past the last shard boundary, so
:meth:`ShardedTable.advanced` routes them to the owning (last) shard
and :meth:`SketchBackend.advance` maintains the merged state
incrementally — the reservoir tops up hypergeometrically and delta
sketches merge at rate 1.0 (full-scan summaries must observe every
appended row).
"""

from __future__ import annotations

import dataclasses
import threading
import time
import zlib
from typing import Any, Mapping, Protocol

import numpy as np

from repro.core.config import Fidelity, Parallelism
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.engine.backends import (
    _MG_CAPACITY,
    CacheCounters,
    SketchBackend,
    table_fingerprint,
)
from repro.engine.kernels import (
    KernelTimings,
    frequency_summary_from_codes,
    frequency_summary_from_labels,
    quantile_summary,
)
from repro.errors import MapError
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch


def tag_rng(seed: int, tag: str) -> np.random.Generator:
    """The deterministic generator for ``(seed, tag)``.

    Exactly :meth:`ExecutionContext.child_rng`'s derivation for string
    sources (``default_rng([seed, crc32(tag)])``), factored out so
    worker *processes* — which cannot call a bound method of the
    parent's context — draw the same streams the parent would.  A
    regression test pins the two implementations together.
    """
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8"))])


def fork_available() -> bool:
    """True when ``multiprocessing`` can *safely* fork on this platform.

    Fork is what makes sharding cheap: workers inherit the parent's
    table pages copy-on-write instead of pickling row data.  Windows
    has no fork at all, and macOS advertises one that is unsafe with
    system frameworks (Accelerate-backed numpy can abort in the child
    with ``objc_initializeAfterForkError``), so both fall back to
    :class:`InlineVenue` — same answers, single core.

    Forking a *threaded* parent (the service's worker pool does) is
    the usual fork caveat: the children only touch the staged
    :data:`_WORK` snapshot, numpy slicing, and pure-Python sketch
    code — never the context lock — which is the same discipline
    joblib-style fork pools rely on.
    """
    import multiprocessing
    import sys

    if sys.platform == "darwin":
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def new_shard_aggregate() -> dict[str, Any]:
    """An empty aggregate for folding backends' shard provenance."""
    return {
        "builds": 0,
        "shards": 0,
        "build_seconds": 0.0,
        "shard_seconds": [],
        #: Columnar-kernel nanoseconds summed across shard scans
        #: (:class:`repro.engine.kernels.KernelTimings`).
        "kernel_nanos": {},
        # Cluster provenance (zero unless a cluster venue scanned):
        "cluster_builds": 0,
        "servers": 0,
        "shard_retries": 0,
    }


def merge_shard_info(
    target: dict[str, Any], info: Mapping[str, Any]
) -> dict[str, Any]:
    """Fold one ``parallel`` provenance block into an aggregate.

    ``info`` is either a backend's ``snapshot()["parallel"]`` (one
    build) or another aggregate; both
    :meth:`ExecutionContext.backend_snapshot` and the service
    ``/metrics`` merge go through here, so a field added to the
    block :func:`build_sharded_backend` writes propagates through
    every layer by editing one function.  Cluster keys default to
    zero so local-build blocks (which do not emit them) fold unchanged.
    """
    target["builds"] += info.get("builds", 1)
    target["shards"] += info["shards"]
    target["build_seconds"] += info["build_seconds"]
    target["shard_seconds"].extend(info["shard_seconds"])
    for kernel, nanos in info.get("kernel_nanos", {}).items():
        target["kernel_nanos"][kernel] = (
            target["kernel_nanos"].get(kernel, 0) + int(nanos)
        )
    target["cluster_builds"] += info.get(
        "cluster_builds", 1 if info.get("servers") else 0
    )
    target["servers"] = max(
        target["servers"], int(info.get("servers", 0))
    )
    target["shard_retries"] += int(info.get("shard_retries", 0))
    return target


# ---------------------------------------------------------------------- #
# Sharding
# ---------------------------------------------------------------------- #


class ShardedTable:
    """A table partitioned into contiguous row-range shards.

    Boundaries split the row count as evenly as possible (the first
    ``n_rows % n_shards`` shards get one extra row), depend only on
    ``(n_rows, n_shards)``, and never on the machine — they are part of
    the statistical recipe, since each shard seeds its own RNG stream.
    When ``n_shards`` exceeds the row count the trailing shards are
    simply **empty** (``low == high``): they scan to empty samples and
    empty sketches, both of which merge as identities, so the layout a
    config names is honored verbatim instead of being silently clamped
    — a ``shards=8`` config means the same RNG streams on a 5-row
    fixture as on a 1M-row table.
    """

    def __init__(self, table: Table, n_shards: int) -> None:
        if table.n_rows == 0:
            raise MapError("cannot shard an empty table")
        if n_shards < 1:
            raise MapError(f"n_shards must be >= 1, got {n_shards}")
        self._table = table
        k = int(n_shards)
        base, extra = divmod(table.n_rows, k)
        bounds: list[tuple[int, int]] = []
        low = 0
        for index in range(k):
            high = low + base + (1 if index < extra else 0)
            bounds.append((low, high))
            low = high
        self._bounds = tuple(bounds)

    @property
    def table(self) -> Table:
        """The table being sharded."""
        return self._table

    @property
    def n_shards(self) -> int:
        """Number of row-range shards."""
        return len(self._bounds)

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open ``(low, high)`` row ranges, in shard order."""
        return self._bounds

    def shard(self, index: int) -> Table:
        """Materialize one shard as a table (diagnostics and tests;
        the workers read column slices instead of copying rows)."""
        low, high = self._bounds[index]
        return self._table.take(
            np.arange(low, high), name=f"{self._table.name}_shard{index}"
        )

    def owning_shard(self, row_index: int) -> int:
        """The shard whose row range contains ``row_index``.

        Rows at or past the current end belong to the last shard —
        that is where :meth:`advanced` routes appended rows.
        """
        if row_index < 0:
            raise MapError(f"row index must be >= 0, got {row_index}")
        for index, (low, high) in enumerate(self._bounds):
            if low <= row_index < high:
                return index
        return len(self._bounds) - 1

    def advanced(self, new_table: Table) -> "ShardedTable":
        """This sharding routed onto an appended version of the table.

        Appended rows live in ``[old_n_rows, new_n_rows)`` — past every
        boundary — so they extend the owning (last) shard's range;
        earlier shard boundaries are untouched, which is what keeps
        per-shard RNG streams and merge order stable across appends.
        """
        if new_table.n_rows < self._table.n_rows:
            raise MapError(
                "streaming tables are append-only: cannot advance a "
                f"sharding from {self._table.n_rows} to "
                f"{new_table.n_rows} rows"
            )
        out = ShardedTable.__new__(ShardedTable)
        out._table = new_table
        last_low = self._bounds[-1][0]
        out._bounds = self._bounds[:-1] + ((last_low, new_table.n_rows),)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardedTable {self._table.name!r} rows={self._table.n_rows} "
            f"shards={self.n_shards}>"
        )


# ---------------------------------------------------------------------- #
# Per-shard statistics (runs inside worker processes)
# ---------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class ShardStatistics:
    """What one shard scan produces (cheap to pickle back to the parent).

    Sketches travel in their ``to_dict`` wire form — a few hundred
    tuples/counters — and the row sample as *global* row indices, so a
    worker never ships row data.
    """

    index: int
    n_rows: int
    #: Uniform sample of the shard's rows, as global row indices.
    sample: np.ndarray
    #: Attribute → :meth:`GKQuantileSketch.to_dict` payload.
    quantiles: dict[str, dict[str, Any]]
    #: Attribute → :meth:`MisraGriesSketch.to_dict` payload.
    frequencies: dict[str, dict[str, Any]]
    #: Wall-clock seconds the shard scan took (inside the worker).
    seconds: float
    #: Columnar-kernel nanoseconds inside this scan
    #: (:class:`repro.engine.kernels.KernelTimings` ``as_dict``).
    kernel_nanos: dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON wire form (the cluster scan response payload).

        The sketches are already in their ``to_dict`` payloads; only
        the index array needs coercion.  Global row indices are exact
        integers, so the JSON round trip is lossless and a shard
        statistic built on a server folds bit-identically to one built
        by a local worker.
        """
        return {
            "index": self.index,
            "n_rows": self.n_rows,
            "sample": [int(i) for i in self.sample.tolist()],
            "quantiles": self.quantiles,
            "frequencies": self.frequencies,
            "seconds": self.seconds,
            "kernel_nanos": dict(self.kernel_nanos),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardStatistics":
        """Rebuild from :meth:`to_dict` output.

        ``kernel_nanos`` defaults to empty — a pre-kernels peer's scan
        payload (no timing block) still folds; timing is provenance,
        not statistics.
        """
        return cls(
            index=int(data["index"]),
            n_rows=int(data["n_rows"]),
            sample=np.asarray(data["sample"], dtype=np.int64),
            quantiles={
                str(k): dict(v) for k, v in data["quantiles"].items()
            },
            frequencies={
                str(k): dict(v) for k, v in data["frequencies"].items()
            },
            seconds=float(data["seconds"]),
            kernel_nanos={
                str(k): int(v)
                for k, v in dict(data.get("kernel_nanos", {})).items()
            },
        )


@dataclasses.dataclass(frozen=True)
class ScanRecipe:
    """What one build asks of every shard scan, whatever the venue."""

    seed: int
    budget_rows: int
    #: False when the budget covers the whole table — the merged
    #: backend will use the table itself, so shards skip the sample
    #: permutation draw entirely.
    sample_rows: bool
    epsilon: float
    numeric: tuple[str, ...]
    #: Categorical attribute → Misra–Gries counter budget (computed
    #: once in the parent from the full dictionary, so every shard
    #: sketch has the same capacity and merging is well-defined).
    categorical: tuple[tuple[str, int], ...]
    #: The layout's setting; a venue reads its placement (worker or
    #: server count) from it, never statistics.
    parallelism: Parallelism


def scan_shard_values(
    *,
    index: int,
    low: int,
    n_rows: int,
    seed: int,
    fingerprint: int,
    budget_rows: int,
    sample_rows: bool,
    epsilon: float,
    numeric: dict[str, np.ndarray],
    categorical: tuple[tuple[str, int, Any], ...],
) -> ShardStatistics:
    """Scan one shard's raw values: uniform row sample + full sketches.

    The array-level core of the shard scan, shared verbatim by the
    local venues (:func:`_scan_shard`) and the cluster shard
    server (:mod:`repro.cluster.shard`) — one implementation is what
    makes "cluster answers are bit-identical to local" true by
    construction rather than by parallel maintenance.

    ``numeric`` maps attribute → the shard's raw values (``NaN`` for
    missing); ``categorical`` carries ``(attribute, capacity, payload)``
    where the payload is either a decoded label list (missing dropped,
    row order — the cluster wire form) or a ``(codes, categories)``
    pair of raw buffers (the local fast path; no label is decoded).
    Both payloads build content-identical summaries.  Every draw comes
    from the shard's own ``(seed, "shard:<index>:<fingerprint>")``
    stream, so the result depends only on the shard — not on which
    worker or server ran it.

    The sketch builds run as columnar kernels
    (:mod:`repro.engine.kernels`); the per-kernel nanoseconds ride back
    in ``kernel_nanos``.
    """
    started = time.perf_counter()
    timings = KernelTimings()
    rng = tag_rng(seed, f"shard:{index}:{fingerprint}")
    if sample_rows:
        keep = min(budget_rows, n_rows)
        sample = np.sort(rng.permutation(n_rows)[:keep]) + low
        sample = sample.astype(np.int64, copy=False)
    else:
        # The budget covers the whole table: the merged backend uses
        # the table itself, so shipping an index array per shard back
        # across the process boundary would buy nothing.
        sample = np.empty(0, dtype=np.int64)

    quantiles: dict[str, dict[str, Any]] = {}
    for attribute, values in numeric.items():
        gk = quantile_summary(values, epsilon, timings=timings)
        quantiles[attribute] = gk.to_dict()

    frequencies: dict[str, dict[str, Any]] = {}
    for attribute, capacity, payload in categorical:
        if isinstance(payload, tuple):
            codes, categories = payload
            mg = frequency_summary_from_codes(
                codes, categories, capacity, timings=timings
            )
        else:
            mg = frequency_summary_from_labels(payload, capacity, timings=timings)
        frequencies[attribute] = mg.to_dict()

    return ShardStatistics(
        index=index,
        n_rows=n_rows,
        sample=sample,
        quantiles=quantiles,
        frequencies=frequencies,
        seconds=time.perf_counter() - started,
        kernel_nanos=timings.as_dict(),
    )


def shard_column_values(
    table: Table,
    low: int,
    high: int,
    numeric: tuple[str, ...],
    categorical: tuple[tuple[str, int], ...],
    *,
    decode_labels: bool = True,
) -> tuple[dict[str, np.ndarray], tuple[tuple[str, int, Any], ...]]:
    """Slice a table's dimension columns into scan-core inputs.

    Exactly the value streams :func:`scan_shard_values` consumes — raw
    numeric values with ``NaN`` kept, plus categorical payloads.  With
    ``decode_labels`` (the default, and the only JSON-serializable
    form — the coordinator ships this to shard servers) the payload is
    the decoded label list with missing dropped, in row order; without
    it the payload is the raw ``(codes, categories)`` buffer pair, so
    the local worker path never decodes a label the
    :func:`repro.engine.kernels.frequency_summary_from_codes` kernel
    will only count.
    """
    numeric_values = {
        attribute: table.numeric(attribute).data[low:high]
        for attribute in numeric
    }
    categorical_values: list[tuple[str, int, Any]] = []
    for attribute, capacity in categorical:
        column = table.categorical(attribute)
        categories = list(column.categories)
        codes = column.codes[low:high]
        if decode_labels:
            labels = [categories[code] for code in codes[codes >= 0].tolist()]
            categorical_values.append((attribute, capacity, labels))
        else:
            categorical_values.append(
                (attribute, capacity, (codes, categories))
            )
    return numeric_values, tuple(categorical_values)


def _scan_shard(
    table: Table, layout: ShardedTable, recipe: ScanRecipe, index: int
) -> ShardStatistics:
    """Scan one shard in this process.

    Delegates to :func:`scan_shard_values` on column slices, so a
    locally built shard statistic is the same object a shard server
    would produce.
    """
    low, high = layout.bounds[index]
    numeric, categorical = shard_column_values(
        table, low, high, recipe.numeric, recipe.categorical,
        decode_labels=False,
    )
    return scan_shard_values(
        index=index,
        low=low,
        n_rows=high - low,
        seed=recipe.seed,
        fingerprint=table_fingerprint(table),
        budget_rows=recipe.budget_rows,
        sample_rows=recipe.sample_rows,
        epsilon=recipe.epsilon,
        numeric=numeric,
        categorical=categorical,
    )


# ---------------------------------------------------------------------- #
# Scan venues
# ---------------------------------------------------------------------- #


class ScanVenue(Protocol):
    """Where a build's shard scans run.

    The one variation point of :func:`build_sharded_backend`: shard
    layout, scan core, fold order and RNG tags are fixed, so venues are
    interchangeable bit for bit and differ only in wall-clock and in
    the provenance they report.  Consulted at build and at
    :meth:`SketchBackend.advance`, never per query.
    """

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[ShardStatistics]:
        """Statistics of every shard of ``layout``, in shard order."""

    def append(
        self,
        new_table: Table,
        old_layout: ShardedTable,
        parallelism: Parallelism,
    ) -> None:
        """Told after a backend built here advanced onto ``new_table``."""

    def provenance(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> dict[str, Any]:
        """Venue keys for the ``parallel`` block of the build the
        calling thread just scanned."""


class InlineVenue:
    """Scans in the calling process: the ``workers=1`` / no-fork venue.

    Runs the same per-shard function in shard order, so an inline build
    is bit-identical to any other — which is what makes it a *fallback*
    rather than a different mode.
    """

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[ShardStatistics]:
        """Scan every shard, in order."""
        return [
            _scan_shard(table, layout, recipe, index)
            for index in range(layout.n_shards)
        ]

    def append(
        self,
        new_table: Table,
        old_layout: ShardedTable,
        parallelism: Parallelism,
    ) -> None:
        """Nothing to route: local shards are row ranges of the table."""

    def provenance(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> dict[str, Any]:
        """A local build has no venue keys to add."""
        return {}


#: The build a :class:`ForkVenue` is scanning; set in the parent
#: immediately before the pool forks, so workers read it from inherited
#: memory instead of unpickling the table.  ``_WORK_LOCK`` serializes
#: concurrent fork-pool builds in one process (two pools racing a
#: module global would be worse than queueing; a build is short-lived).
_WORK: tuple[Table, ShardedTable, ScanRecipe] | None = None
_WORK_LOCK = threading.Lock()


def _scan_staged_shard(index: int) -> ShardStatistics:
    """Scan one shard of the staged :data:`_WORK` (in a pool worker)."""
    work = _WORK
    if work is None:  # pragma: no cover - defensive
        raise MapError("no shard work is staged")
    return _scan_shard(*work, index)


class ForkVenue(InlineVenue):
    """Scans across a ``multiprocessing`` fork pool."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise MapError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[ShardStatistics]:
        """Scan the shards across the pool; results keep shard order."""
        import multiprocessing

        global _WORK
        context = multiprocessing.get_context("fork")
        with _WORK_LOCK:
            _WORK = (table, layout, recipe)
            try:
                with context.Pool(
                    processes=min(self.workers, layout.n_shards)
                ) as pool:
                    return pool.map(
                        _scan_staged_shard, range(layout.n_shards)
                    )
            finally:
                _WORK = None


def local_venue(parallelism: Parallelism) -> InlineVenue:
    """The local venue a parallelism setting asks for on this platform.

    ``workers=1`` — and any platform that cannot fork — scans inline;
    results are identical either way, only wall-clock differs.
    """
    workers = parallelism.resolved_workers
    if workers <= 1 or not fork_available():
        return InlineVenue()
    return ForkVenue(workers)


# ---------------------------------------------------------------------- #
# Merging (parent side, deterministic fold in shard order)
# ---------------------------------------------------------------------- #


def merge_row_samples(
    sample_a: np.ndarray,
    seen_a: int,
    sample_b: np.ndarray,
    seen_b: int,
    capacity: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Merge two uniform row samples into one over the union of rows.

    :meth:`ReservoirSampler.merge`'s rule applied to index arrays:
    when the union fits the capacity, concatenate (deterministic);
    otherwise draw the survivor count from ``self`` hypergeometrically,
    weighted by how many rows each side has seen, which keeps the
    result a uniform sample of the union.
    """
    if len(sample_a) + len(sample_b) <= capacity:
        return np.concatenate([sample_a, sample_b]), seen_a + seen_b
    from_a = int(rng.hypergeometric(seen_a, seen_b, capacity))
    # Clamp to what each side can actually supply.
    from_a = min(from_a, len(sample_a))
    from_a = max(from_a, capacity - len(sample_b))
    keep_a = np.sort(rng.choice(len(sample_a), size=from_a, replace=False))
    keep_b = np.sort(
        rng.choice(len(sample_b), size=capacity - from_a, replace=False)
    )
    merged = np.concatenate([sample_a[keep_a], sample_b[keep_b]])
    return merged, seen_a + seen_b


def _sketch_attributes(
    table: Table,
) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...]]:
    """Dimension attributes to sketch, split by kind.

    Misra–Gries capacities come from the full dictionary (shared by
    every derived table), so per-shard sketches are merge-compatible.
    """
    numeric: list[str] = []
    categorical: list[tuple[str, int]] = []
    for column in table.dimension_columns():
        if isinstance(column, NumericColumn):
            numeric.append(column.name)
        elif isinstance(column, CategoricalColumn):
            capacity = max(1, min(_MG_CAPACITY, len(column.categories)))
            categorical.append((column.name, capacity))
    return tuple(numeric), tuple(categorical)


def fold_shard_statistics(
    results: list[ShardStatistics],
    *,
    seed: int,
    fingerprint: int,
    budget_rows: int,
    sample_rows: bool,
) -> tuple[
    np.ndarray, dict[str, GKQuantileSketch], dict[str, MisraGriesSketch]
]:
    """Fold per-shard statistics **in shard order** into merged state.

    Returns ``(sample_indices, quantile_sketches, frequency_sketches)``.
    The fold, like the scan, has exactly one implementation, and its
    ``"shard-merge:<index>:<fingerprint>"`` RNG streams depend only on
    the shard layout, never on where the scans ran.
    """
    first, rest = results[0], results[1:]
    sample, seen = first.sample, first.n_rows
    quantiles: dict[str, GKQuantileSketch] = {
        attribute: GKQuantileSketch.from_dict(payload)
        for attribute, payload in first.quantiles.items()
    }
    frequencies: dict[str, MisraGriesSketch] = {
        attribute: MisraGriesSketch.from_dict(payload)
        for attribute, payload in first.frequencies.items()
    }
    for shard in rest:
        if sample_rows:
            sample, seen = merge_row_samples(
                sample, seen, shard.sample, shard.n_rows,
                budget_rows,
                tag_rng(seed, f"shard-merge:{shard.index}:{fingerprint}"),
            )
        for attribute, payload in shard.quantiles.items():
            quantiles[attribute] = quantiles[attribute].merge(
                GKQuantileSketch.from_dict(payload)
            )
        for attribute, payload in shard.frequencies.items():
            frequencies[attribute] = frequencies[attribute].merge(
                MisraGriesSketch.from_dict(payload)
            )
    return sample, quantiles, frequencies


def build_sharded_backend(
    table: Table,
    fidelity: Fidelity,
    parallelism: Parallelism,
    *,
    seed: int = 0,
    counters: CacheCounters | None = None,
    lock: threading.Lock | None = None,
    venue: ScanVenue | None = None,
) -> SketchBackend:
    """Build sketch statistics for ``table`` with the scan/merge split.

    The one place that shards, scans, folds and constructs.  Shards are
    scanned by ``venue`` (default: :func:`local_venue`'s pool or inline
    scan), then folded in shard order: row samples merge
    hypergeometrically down to ``fidelity.budget_rows``, GK/Misra–Gries
    summaries merge with their PR-3 rules.  The result is a plain
    :class:`SketchBackend` — the pipeline stages cannot tell it from a
    serially built one, except that its cut summaries reflect *every*
    row instead of a reservoir (``full_scan``), and its
    ``snapshot()["parallel"]`` block reports the layout, per-shard scan
    seconds, scan-kernel nanoseconds and the venue's own keys.
    """
    if not fidelity.is_sketch:
        raise MapError(
            "parallel statistics need a sketch fidelity, got "
            f"{fidelity.spec()!r} (exact masks are row-backed and "
            "cannot be shard-merged)"
        )
    started = time.perf_counter()
    layout = ShardedTable(table, parallelism.shards)
    if venue is None:
        venue = local_venue(parallelism)
    numeric, categorical = _sketch_attributes(table)
    sample_rows = fidelity.budget_rows < table.n_rows
    results = venue.scan(
        table,
        layout,
        ScanRecipe(
            seed=seed,
            budget_rows=fidelity.budget_rows,
            sample_rows=sample_rows,
            epsilon=fidelity.epsilon,
            numeric=numeric,
            categorical=categorical,
            parallelism=parallelism,
        ),
    )
    sample, quantiles, frequencies = fold_shard_statistics(
        results,
        seed=seed,
        fingerprint=table_fingerprint(table),
        budget_rows=fidelity.budget_rows,
        sample_rows=sample_rows,
    )
    if not sample_rows:
        sample_table = table  # the budget covers everything
    else:
        sample_table = table.take(
            np.sort(sample),
            name=f"{table.name}_shardsketch{fidelity.budget_rows}",
        )
    scan_timings = KernelTimings()
    for shard in results:
        scan_timings.merge(shard.kernel_nanos)
    return SketchBackend(
        table,
        fidelity,
        counters=counters,
        lock=lock,
        sample=sample_table,
        quantiles=quantiles,
        frequencies=frequencies,
        full_scan=True,
        layout=layout,
        parallelism=parallelism,
        venue=venue,
        provenance={
            "parallel": {
                "spec": parallelism.spec(),
                "workers": parallelism.resolved_workers,
                "shards": layout.n_shards,
                "build_seconds": time.perf_counter() - started,
                "shard_seconds": [shard.seconds for shard in results],
                # Kernel nanoseconds summed across the build's scans
                # (distinct from the backend's post-build delta meters).
                "kernel_nanos": scan_timings.as_dict(),
                **venue.provenance(layout, parallelism),
            }
        },
    )
