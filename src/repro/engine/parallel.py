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
2. A :class:`ScanVenue` — the in-process :class:`InlineVenue` (the
   calling thread, or one thread pool per build), or a cluster's
   :class:`~repro.cluster.coordinator.ClusterCoordinator` — scans every
   shard into a one-shard :class:`~repro.sketch.state.SketchState`: a
   uniform row sample of the shard plus **full-scan** GK quantile /
   Misra–Gries frequency summaries over every shard row (higher
   fidelity than the reservoir-built summaries of the unsharded path,
   whose sampling error comes on top of the sketch error).
3. :func:`build_sharded_backend` folds the shard states **in shard
   order** with the one merge rule of :mod:`repro.sketch.state` —
   :func:`~repro.sketch.state.merge_row_samples` for the row samples,
   :func:`~repro.sketch.state.merge_summaries` for the summaries — and
   hands the folded state to one
   :class:`~repro.engine.backends.SketchBackend`, which the existing
   pipeline consumes unchanged.  Summaries stay sketch objects from
   scan to fold (a GK merge is numpy array work); only a cluster
   ``/scan`` answer serializes them, as the numpy buffers of
   :mod:`repro.cluster.protocol`.

The venue is never part of the statistical recipe: a new place to run
the scans is one more :class:`ScanVenue`, never a second build function
or a backend subclass.

Determinism: every random draw comes from a generator derived exactly
like :meth:`ExecutionContext.child_rng` from ``(config.seed, tag)``,
with tags keyed by **shard index** (``"shard:3:<table>"``,
``"shard-merge:3:<table>"``).  Shard boundaries and merge order depend
only on ``(table, shards)``, never on the worker count — so serial,
2-worker, and 4-worker runs produce bit-identical answers, and the
worker count is a pure wall-clock knob (the E20 gate and the
determinism property tests assert this).

Streaming: venues are consulted only at build time.  After an append
:meth:`SketchBackend.advance` maintains the folded state locally with
the same two rules the fold used: the sample and the delta rows
merge by :func:`~repro.sketch.state.merge_row_samples`, and delta summaries
built over every appended row (the state is ``full_scan``) merge by
:func:`~repro.sketch.state.merge_summaries`.  No venue is consulted; a
fresh build over the grown table shards it anew.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
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
    quantile_summary,
)
from repro.errors import MapError
from repro.sketch.state import SketchState, merge_row_samples, merge_summaries


def tag_rng(seed: int, tag: str) -> np.random.Generator:
    """The deterministic generator for ``(seed, tag)``.

    Exactly :meth:`ExecutionContext.child_rng`'s derivation for string
    sources (``default_rng([seed, crc32(tag)])``), factored out so
    shard scans — which run with no context, on a scan thread or a
    shard server — draw the same streams a context would.  A
    regression test pins the two implementations together.
    """
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8"))])


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
    def n_shards(self) -> int:
        """Number of row-range shards."""
        return len(self._bounds)

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open ``(low, high)`` row ranges, in shard order."""
        return self._bounds

    def shard(self, index: int) -> Table:
        """Materialize one shard as a table (diagnostics and tests;
        the scans read column slices instead of copying rows)."""
        low, high = self._bounds[index]
        return self._table.take(
            np.arange(low, high), name=f"{self._table.name}_shard{index}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ShardedTable {self._table.name!r} rows={self._table.n_rows} "
            f"shards={self.n_shards}>"
        )


# ---------------------------------------------------------------------- #
# Per-shard statistics (runs on a scan thread or a shard server)
# ---------------------------------------------------------------------- #


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
) -> SketchState:
    """Scan one shard's raw values into a one-shard :class:`SketchState`:
    a uniform row sample as global row indices, full-scan summaries, and
    the shard ``index``, ``seconds`` and ``kernel_nanos`` as provenance.

    The array-level core of the shard scan, shared verbatim by the
    local venue (:func:`_scan_shard`) and the cluster shard
    server (:mod:`repro.cluster.shard`) — one implementation is what
    makes "cluster answers are bit-identical to local" true by
    construction rather than by parallel maintenance.

    ``numeric`` maps attribute → the shard's raw values (``NaN`` for
    missing); ``categorical`` carries ``(attribute, capacity, (codes,
    categories))``: the shard's raw code buffer and the column's
    dictionary, on a scan thread and a shard server alike (no label
    is decoded just to be counted).  Every draw comes
    from the shard's own ``(seed, "shard:<index>:<fingerprint>")``
    stream, so the result depends only on the shard — not on which
    thread or server ran it.  The sketch builds run as columnar
    kernels (:mod:`repro.engine.kernels`).
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
        # the table itself, so an index array per shard (shipped back
        # over the wire from a shard server) would buy nothing.
        sample = np.empty(0, dtype=np.int64)

    quantiles = {
        attribute: quantile_summary(values, epsilon, timings=timings)
        for attribute, values in numeric.items()
    }

    frequencies = {
        attribute: frequency_summary_from_codes(
            codes, categories, capacity, timings=timings
        )
        for attribute, capacity, (codes, categories) in categorical
    }

    return SketchState(
        sample=sample,
        n_rows=n_rows,
        quantiles=quantiles,
        frequencies=frequencies,
        full_scan=True,
        provenance={
            "shard": index,
            "seconds": time.perf_counter() - started,
            "kernel_nanos": timings.as_dict(),
        },
    )


def shard_column_values(
    table: Table,
    low: int,
    high: int,
    numeric: tuple[str, ...],
    categorical: tuple[tuple[str, int], ...],
    *,
    decode_labels: bool = False,
) -> tuple[dict[str, np.ndarray], tuple[tuple[str, int, Any], ...]]:
    """Slice a table's dimension columns into scan-core inputs.

    Exactly the value streams :func:`scan_shard_values` consumes — raw
    numeric values with ``NaN`` kept, plus each categorical's raw
    ``(codes, categories)`` buffer pair, which is also what the
    coordinator pushes to a shard server.  Labels are never decoded:
    ``decode_labels`` is accepted only as ``False``.
    """
    if decode_labels:
        raise MapError("shard scans count dictionary codes, not labels")
    numeric_values = {
        attribute: table.numeric(attribute).data[low:high]
        for attribute in numeric
    }
    categorical_values = []
    for attribute, capacity in categorical:
        column = table.categorical(attribute)
        categorical_values.append(
            (attribute, capacity,
             (column.codes[low:high], list(column.categories)))
        )
    return numeric_values, tuple(categorical_values)


def _scan_shard(
    table: Table, layout: ShardedTable, recipe: ScanRecipe, index: int
) -> SketchState:
    """Scan one shard in this process.

    Delegates to :func:`scan_shard_values` on column slices, so a
    locally scanned shard state is the one a shard server would
    produce.
    """
    low, high = layout.bounds[index]
    numeric, categorical = shard_column_values(
        table, low, high, recipe.numeric, recipe.categorical
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
    the provenance they report.  Consulted only at build time, never
    per query or on an append.
    """

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[SketchState]:
        """Statistics of every shard of ``layout``, in shard order."""

    def provenance(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> dict[str, Any]:
        """Venue keys for the ``parallel`` block of the build the
        calling thread just scanned."""


class InlineVenue:
    """Scans in this process, across ``workers`` threads.

    With one worker (or one shard) the shards scan in the calling
    thread; otherwise a thread pool created for this build maps the
    same per-shard function over them, and the results keep shard
    order.  The scan kernels are numpy sorts and bincounts, which
    release the GIL, so threads overlap.  The pool is never shared:
    scans queued behind the build that waits on them could deadlock.
    The worker count changes wall-clock, never an answer.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise MapError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def scan(
        self, table: Table, layout: ShardedTable, recipe: ScanRecipe
    ) -> list[SketchState]:
        """Scan every shard; results keep shard order."""
        scan_one = functools.partial(_scan_shard, table, layout, recipe)
        indices = range(layout.n_shards)
        threads = min(self.workers, layout.n_shards)
        if threads <= 1:
            return [scan_one(index) for index in indices]
        with ThreadPoolExecutor(threads) as pool:
            return list(pool.map(scan_one, indices))

    def provenance(
        self, layout: ShardedTable, parallelism: Parallelism
    ) -> dict[str, Any]:
        """A local build has no venue keys to add."""
        return {}


# ---------------------------------------------------------------------- #
# Merging (parent side, deterministic fold in shard order)
# ---------------------------------------------------------------------- #


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
    results: list[SketchState],
    *,
    seed: int,
    fingerprint: int,
    budget_rows: int,
    sample_rows: bool,
) -> SketchState:
    """Fold one-shard states **in shard order** into one merged state.

    Samples merge by :func:`~repro.sketch.state.merge_row_samples`
    unless ``sample_rows`` is False (the budget covers the table),
    summaries by
    :func:`~repro.sketch.state.merge_summaries`.  The fold, like the
    scan, has exactly one implementation, and its
    ``"shard-merge:<index>:<fingerprint>"`` RNG streams depend only on
    the shard layout, never on where the scans ran.
    """
    folded = results[0]
    for shard in results[1:]:
        sample, n_rows = folded.sample, folded.n_rows + shard.n_rows
        if sample_rows:
            index = shard.provenance["shard"]
            sample, n_rows = merge_row_samples(
                folded.sample, folded.n_rows, shard.sample, shard.n_rows,
                budget_rows,
                tag_rng(seed, f"shard-merge:{index}:{fingerprint}"),
            )
        folded = SketchState(
            sample=sample,
            n_rows=n_rows,
            quantiles=merge_summaries(folded.quantiles, shard.quantiles),
            frequencies=merge_summaries(
                folded.frequencies, shard.frequencies
            ),
            full_scan=True,
        )
    return folded


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
    scanned by ``venue`` (default: an :class:`InlineVenue` with the
    setting's resolved worker count), then folded in shard order: row samples merge
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
        venue = InlineVenue(parallelism.resolved_workers)
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
    folded = fold_shard_statistics(
        results,
        seed=seed,
        fingerprint=table_fingerprint(table),
        budget_rows=fidelity.budget_rows,
        sample_rows=sample_rows,
    )
    scan_timings = KernelTimings()
    for shard in results:
        scan_timings.merge(shard.provenance["kernel_nanos"])
    parallel = {
        "spec": parallelism.spec(),
        "workers": parallelism.resolved_workers,
        "shards": layout.n_shards,
        "build_seconds": time.perf_counter() - started,
        "shard_seconds": [shard.provenance["seconds"] for shard in results],
        # Kernel nanoseconds summed across the build's scans
        # (distinct from the backend's post-build delta meters).
        "kernel_nanos": scan_timings.as_dict(),
        **venue.provenance(layout, parallelism),
    }
    return SketchBackend(
        table,
        fidelity,
        counters=counters,
        lock=lock,
        state=dataclasses.replace(
            folded,
            # Shards skip the sample when the budget covers the table.
            sample=folded.sample if sample_rows else np.arange(table.n_rows),
            version=table.version,
            provenance={"parallel": parallel},
        ),
    )
