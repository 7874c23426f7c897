"""Columnar scan kernels: batch sketch builds over contiguous buffers.

Every execution venue — the serial backend, the scan threads of
:mod:`repro.engine.parallel`, and the cluster shard servers of
:mod:`repro.cluster` — bottoms out in one scan core
(:func:`repro.engine.parallel.scan_shard_values`), and until this
module that core fed the GK quantile and Misra–Gries frequency
sketches one value at a time: ~2 interpreter round-trips per row, an
``O(space)`` ``list.insert`` inside each GK update.  This module
replaces those per-row loops with three columnar kernels:

* :func:`sorted_clean_values` — **fused mask + extract + sort**: one
  ``np.sort`` pass yields both the missing-value mask (NaN orders
  last) and the ascending clean values, with no intermediate per-row
  tuple traffic;
* :func:`quantile_summary` — **batch GK build**: the sorted column
  becomes the canonical ε-valid summary in one
  :meth:`~repro.sketch.quantile.GKQuantileSketch.from_sorted` pass;
* :func:`frequency_summary_from_codes` — **batch Misra–Gries**:
  per-block ``np.bincount`` category totals folded into the counter
  state through
  :meth:`~repro.sketch.frequency.MisraGriesSketch.extend_counts`,
  instead of per-item decrement rounds.

There is one kernel path.  The canonical builds are defined on the
value multiset, not on the implementation, so the sketch contents are
fixed by the rows alone (DESIGN decision 9); the hypothesis
differential suite pins these kernels to a pure-Python oracle that
lives with the tests.

Contract: this module is **RNG-free** — kernels are deterministic
functions of their input buffers; every random draw of a scan (the
row-sample permutation) stays in the caller on its sanctioned
``tag_rng`` stream.  atlas-lint rule R1 enforces this mechanically
(the module may not even construct a seeded generator).

Timing: every kernel invocation is metered in nanoseconds
(``perf_counter_ns`` — a monotonic duration clock, legal under R1)
into a :class:`KernelTimings` block that rides the shard-statistics
provenance into ``backend_snapshot`` and the service ``/metrics``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from typing import cast

import numpy as np

from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch

#: Kernel names, as they appear in timing blocks and ``/metrics``.
SORT_CLEAN = "sort_clean"
GK_BUILD = "gk_build"
MG_BUILD = "mg_build"


class KernelTimings:
    """Per-kernel nanosecond meters for one scan (or one backend).

    Plain additive counters — ``nanos[kernel] / calls[kernel]`` is the
    mean kernel cost; :meth:`as_dict` is the JSON-ready form that the
    shard-statistics provenance and ``backend_snapshot`` carry into
    the service ``/metrics``.  Not thread-safe on its own: a scan owns
    its block, and backends fold under their own lock.
    """

    __slots__ = ("nanos", "calls")

    def __init__(self) -> None:
        self.nanos: dict[str, int] = {}
        self.calls: dict[str, int] = {}

    def add(self, kernel: str, nanos: int) -> None:
        """Record one kernel invocation of ``nanos`` duration."""
        self.nanos[kernel] = self.nanos.get(kernel, 0) + int(nanos)
        self.calls[kernel] = self.calls.get(kernel, 0) + 1

    def merge(self, other: "dict[str, int] | KernelTimings") -> None:
        """Fold another timing block (or its ``nanos`` dict) into this."""
        if isinstance(other, KernelTimings):
            for kernel, nanos in other.nanos.items():
                self.nanos[kernel] = self.nanos.get(kernel, 0) + nanos
            for kernel, calls in other.calls.items():
                self.calls[kernel] = self.calls.get(kernel, 0) + calls
            return
        for kernel, nanos in other.items():
            self.nanos[kernel] = self.nanos.get(kernel, 0) + int(nanos)
            self.calls[kernel] = self.calls.get(kernel, 0) + 1

    def as_dict(self) -> dict[str, int]:
        """Kernel → total nanoseconds (JSON-ready)."""
        return dict(self.nanos)


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #


def sorted_clean_values(
    values: "Sequence[float]",
    timings: KernelTimings | None = None,
) -> "Sequence[float]":
    """Fused missing-mask + value extraction + sort over one column.

    Returns the column's non-NaN values in ascending order (a numpy
    array — the indexable sequence :meth:`GKQuantileSketch.from_sorted`
    documents).  IEEE ordering does the masking — ``np.sort`` places
    NaN last — so a single sort produces both the "selected" values
    (the clean prefix) and their order; the NaN count (one vectorized
    reduction) is the missing-value mask folded to the only number the
    scan needs.
    """
    started = time.perf_counter_ns()
    data = np.asarray(values, dtype=np.float64)
    ordered = np.sort(data)
    n_missing = int(np.count_nonzero(np.isnan(data)))
    sliced = ordered[: data.size - n_missing] if n_missing else ordered
    clean = cast("Sequence[float]", sliced)
    if timings is not None:
        timings.add(SORT_CLEAN, time.perf_counter_ns() - started)
    return clean


def quantile_summary(
    values: "Sequence[float]",
    epsilon: float,
    timings: KernelTimings | None = None,
) -> GKQuantileSketch:
    """Batch-build the canonical GK summary of one numeric column.

    Sort once (:func:`sorted_clean_values`, NaN dropped as missing),
    then one :meth:`GKQuantileSketch.from_sorted` pass.  The canonical
    build depends only on the sorted multiset.
    """
    ordered = sorted_clean_values(values, timings)
    started = time.perf_counter_ns()
    sketch = GKQuantileSketch.from_sorted(ordered, epsilon=epsilon)
    if timings is not None:
        timings.add(GK_BUILD, time.perf_counter_ns() - started)
    return sketch


def frequency_summary_from_codes(
    codes: "Iterable[int]",
    categories: Sequence[str],
    capacity: int,
    timings: KernelTimings | None = None,
) -> MisraGriesSketch:
    """Batch-build a Misra–Gries summary from dictionary-encoded codes.

    ``codes`` is the raw ``int32`` buffer of a
    :class:`~repro.dataset.column.CategoricalColumn` slice (``-1`` =
    missing).  The block is histogrammed in one ``np.bincount`` and
    the per-category totals fold into the counter state; no label is
    ever decoded for rows that only need counting.
    """
    started = time.perf_counter_ns()
    sketch = MisraGriesSketch(capacity=capacity)
    data = np.asarray(codes)
    if data.dtype.kind not in "iu":
        # An empty Python list arrives as float64; bincount needs
        # an integer buffer.  Real code buffers are int32 already.
        data = data.astype(np.int64)
    present = data[data >= 0]
    totals = np.bincount(present, minlength=len(categories))
    counts = {
        categories[code]: int(total)
        for code, total in enumerate(totals.tolist())
        if total
    }
    sketch.extend_counts(counts)
    if timings is not None:
        timings.add(MG_BUILD, time.perf_counter_ns() - started)
    return sketch
