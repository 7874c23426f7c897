"""Greenwald–Khanna ε-approximate quantile sketch.

Section 5.1 of the paper proposes approximating the CUT median "with
one-pass algorithms such as sketches", citing the Babcock et al. data
stream survey.  The Greenwald–Khanna (GK) sketch is the classic choice:
it maintains ``O((1/ε) log(εn))`` tuples and answers any quantile query
with rank error at most ``εn`` after a single pass.

Reference: M. Greenwald and S. Khanna, "Space-efficient online computation
of quantile summaries", SIGMOD 2001.

Batch construction: :meth:`GKQuantileSketch.extend` (and the columnar
kernels of :mod:`repro.engine.kernels` built on
:meth:`GKQuantileSketch.from_sorted`) construct the summary from the
*sorted* batch in one pass — every ``step = max(1, floor(2εn))``-th
order statistic becomes a tuple with an exact rank (``delta = 0``), so
each gap obeys ``g + delta <= 2εn`` and any quantile query stays within
the same ``εn`` rank-error contract as the online insert path.  This
sorted-batch form is the repo's *canonical* GK build (DESIGN decision
9): it holds ``~1/(2ε)`` tuples instead of the online path's larger
summaries, costs one sort instead of ``n`` list inserts, and — unlike
the insert path — depends only on the value multiset, never on arrival
order.  :meth:`insert` remains the classic online update for true
streaming (one value at a time); the two paths answer within the same
ε bound but retain different tuples, which is why the batch form is
canonical rather than interchangeable.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import SketchError


class GKQuantileSketch:
    """One-pass ε-approximate quantile summary.

    Parameters
    ----------
    epsilon:
        Rank-error bound as a fraction of the stream length.  A query for
        quantile ``q`` returns a value whose rank is within ``epsilon * n``
        of ``q * n``.
    """

    def __init__(self, epsilon: float = 0.01):
        if not 0.0 < epsilon < 1.0:
            raise SketchError(f"epsilon must be in (0, 1), got {epsilon}")
        self._epsilon = float(epsilon)
        # Summary tuple i is (value, g, delta): ``g`` is the gap in
        # minimum rank to tuple i-1, ``delta`` the uncertainty of its
        # own rank.  Values are ascending.
        self._values = np.empty(0, dtype=np.float64)
        self._g = np.empty(0, dtype=np.int64)
        self._delta = np.empty(0, dtype=np.int64)
        self._count = 0
        # Compress every 1/(2ε) inserts, as in the original paper.
        # (capped: a subnormal epsilon's period overflows a float).
        self._compress_period = max(
            1, math.floor(min(1.0 / (2.0 * epsilon), 2.0**62))
        )
        self._since_compress = 0

    @property
    def epsilon(self) -> float:
        """Configured rank-error fraction."""
        return self._epsilon

    @property
    def count(self) -> int:
        """Number of values inserted so far."""
        return self._count

    @property
    def space(self) -> int:
        """Current number of summary tuples held."""
        return len(self._values)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def insert(self, value: float) -> None:
        """Insert one value (NaN values are rejected)."""
        value = float(value)
        if math.isnan(value):
            raise SketchError("cannot insert NaN into a quantile sketch")
        self._insert(value)
        self._since_compress += 1
        if self._since_compress >= self._compress_period:
            self._compress()
            self._since_compress = 0

    def extend(self, values: Iterable[float]) -> None:
        """Insert many values via the canonical sorted-batch build.

        The batch is sorted once and summarized in one pass
        (:meth:`from_sorted`), then — when this sketch already holds
        values — merged in with the standard GK merge rule.  Cost is
        ``O(n log n)`` per call instead of the ``O(n)``-per-value list
        inserts of repeated :meth:`insert`, with the same ``εn``
        rank-error contract (NaN values are rejected, as in
        :meth:`insert`).
        """
        batch: list[float] = []
        for value in values:
            value = float(value)
            if math.isnan(value):
                raise SketchError("cannot insert NaN into a quantile sketch")
            batch.append(value)
        if not batch:
            return
        batch.sort()
        built = self.from_sorted(batch, epsilon=self._epsilon)
        if self._count == 0:
            merged = built
        else:
            merged = self.merge(built)
        self._values, self._g, self._delta = (
            merged._values, merged._g, merged._delta
        )
        self._count = merged._count
        self._since_compress = 0

    @classmethod
    def from_sorted(
        cls, ordered: Sequence[float], epsilon: float = 0.01
    ) -> "GKQuantileSketch":
        """The canonical ε-valid summary of a pre-sorted batch.

        One pass over ``ordered`` (ascending, NaN-free — the caller
        vouches; :meth:`extend` and the columnar kernels both do):
        every ``step = max(1, floor(2εn))``-th order statistic is kept
        as a tuple with exact rank (``delta = 0``), plus the maximum,
        so ``g <= 2εn`` everywhere, ``sum(g) == n``, and any quantile
        query is answered within ``εn`` ranks from ``~1/(2ε)`` tuples.
        ``ordered`` may be any indexable sequence (list or numpy
        array); only the ``O(1/ε)`` selected positions are touched, so
        the construction itself is batch-size-independent.
        """
        sketch = cls(epsilon=epsilon)
        n = len(ordered)
        if n == 0:
            return sketch
        step = max(1, int(math.floor(2.0 * epsilon * n)))
        positions = list(range(0, n, step))
        if positions[-1] != n - 1:
            positions.append(n - 1)
        sketch._values = np.array(
            [ordered[position] for position in positions], dtype=np.float64
        )
        sketch._g = np.diff(np.array(positions, dtype=np.int64), prepend=-1)
        sketch._delta = np.zeros(len(positions), dtype=np.int64)
        sketch._count = n
        return sketch

    def _insert(self, value: float) -> None:
        self._count += 1
        # Insertion position: the first tuple with value >= ``value``.
        position = int(np.searchsorted(self._values, value, side="left"))
        if position == 0 or position == len(self._values):
            # New minimum or maximum: exact rank (delta = 0).
            delta = 0
        else:
            threshold = int(math.floor(2.0 * self._epsilon * self._count))
            delta = max(
                0, int(self._g[position]) + int(self._delta[position]) - 1
            )
            if delta > threshold:
                # Degenerate at tiny counts; clamp to keep the invariant.
                delta = max(0, threshold - 1)
        self._values = np.insert(self._values, position, value)
        self._g = np.insert(self._g, position, 1)
        self._delta = np.insert(self._delta, position, delta)

    def _compress(self) -> None:
        """Right-to-left greedy compress: tuple ``i`` merges into the
        tuple to its right when ``g[i] + g[right] + delta[right]`` fits
        the threshold (the first and last tuples are never removed)."""
        n = len(self._values)
        if n < 3:
            return
        threshold = int(math.floor(2.0 * self._epsilon * self._count))
        g, delta = self._g, self._delta
        # A merge only grows the absorbing tuple's ``g``, so a pair that
        # does not fit as-is never fits: only these tuples can merge.
        fits = np.flatnonzero(g[1:-1] + g[2:] + delta[2:] <= threshold) + 1
        if not len(fits):
            return
        g_list, delta_list = g.tolist(), delta.tolist()
        removed: list[int] = []
        for i in reversed(fits.tolist()):
            if not removed or removed[-1] != i + 1:
                right = i + 1  # else i + 1 was absorbed: keep its absorber
            if g_list[i] + g_list[right] + delta_list[right] <= threshold:
                g_list[right] += g_list[i]
                removed.append(i)
        kept = np.ones(n, dtype=bool)
        kept[removed] = False
        self._values = self._values[kept]
        self._g = np.array(g_list, dtype=np.int64)[kept]
        self._delta = delta[kept]

    # ------------------------------------------------------------------ #
    # Merging and serde
    # ------------------------------------------------------------------ #

    def merge(self, other: "GKQuantileSketch") -> "GKQuantileSketch":
        """Combine two summaries over the concatenated streams.

        Standard GK merge: the tuple lists are interleaved by value and
        each tuple's ``delta`` absorbs the rank uncertainty of the next
        tuple from the *other* summary (``g`` values are untouched, so
        the ``sum(g) == count`` invariant is preserved).  The result is
        then compressed under its own threshold.  Rank error of the
        merged summary is bounded by ``max(ε_a, ε_b)`` on each input's
        share and by ``ε_a + ε_b`` overall — the classic bound for
        merging GK summaries.
        """
        merged = GKQuantileSketch(
            epsilon=max(self._epsilon, other._epsilon)
        )
        merged._count = self._count + other._count
        size = len(self._values) + len(other._values)
        merged._values = np.empty(size, dtype=np.float64)
        merged._g = np.empty(size, dtype=np.int64)
        merged._delta = np.empty(size, dtype=np.int64)
        # A tuple's merged slot is its own index plus the number of
        # other-side tuples placed before it; ties place ``self`` first.
        # That count is also the index of the other side's next tuple,
        # whose ``g + delta - 1`` the tuple's delta absorbs.
        for side, rest, side_rule in (
            (self, other, "left"), (other, self, "right")
        ):
            following = np.searchsorted(rest._values, side._values, side_rule)
            delta = side._delta.copy()
            inside = following < len(rest._values)
            nxt = following[inside]
            delta[inside] += rest._g[nxt] + rest._delta[nxt] - 1
            slots = np.arange(len(side._values)) + following
            merged._values[slots] = side._values
            merged._g[slots] = side._g
            merged._delta[slots] = np.maximum(delta, 0)
        merged._compress()
        return merged

    def to_dict(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return {
            "kind": "gk_quantile",
            "epsilon": self._epsilon,
            "count": self._count,
            "tuples": [list(t) for t in self.merge_summary()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GKQuantileSketch":
        """Rebuild a summary from :meth:`to_dict` output."""
        try:
            rows = [
                (float(value), int(g), int(delta))
                for value, g, delta in data["tuples"]
            ]
            values = np.array([row[0] for row in rows], dtype=np.float64)
            g = np.array([row[1] for row in rows], dtype=np.int64)
            delta = np.array([row[2] for row in rows], dtype=np.int64)
            epsilon, count = data["epsilon"], data["count"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SketchError(f"malformed quantile payload: {exc}") from exc
        return cls.from_arrays(epsilon, count, values, g, delta)

    @classmethod
    def from_arrays(
        cls,
        epsilon: float,
        count: int,
        values: np.ndarray,
        g: np.ndarray,
        delta: np.ndarray,
    ) -> "GKQuantileSketch":
        """Rebuild a summary from its three arrays, validated.

        The one decoder every serialized form goes through
        (:meth:`from_dict` and the cluster wire's numpy buffers):
        ``values`` must be ascending and NaN-free, ``g >= 1``,
        ``delta >= 0``, the three arrays one length, and ``sum(g)``
        equal to ``count``.  The arrays are kept as given (no copy when
        they already have the summary's dtypes).
        """
        try:
            sketch = cls(epsilon=float(epsilon))
            count = int(count)
            values = np.asarray(values, dtype=np.float64)
            g = np.asarray(g, dtype=np.int64)
            delta = np.asarray(delta, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SketchError(f"malformed quantile payload: {exc}") from exc
        if not values.ndim == g.ndim == delta.ndim == 1 or not (
            len(values) == len(g) == len(delta)
        ):
            raise SketchError(
                "inconsistent quantile payload: values, g and delta "
                "differ in shape"
            )
        if np.isnan(values).any():
            raise SketchError("inconsistent quantile payload: NaN value")
        if (g < 1).any() or (delta < 0).any():
            raise SketchError(
                "inconsistent quantile payload: g must be >= 1 and "
                "delta >= 0"
            )
        # Every g is positive, so an int64 overflow shows as a
        # non-positive running total.
        totals = np.cumsum(g)
        g_total = int(totals[-1]) if len(totals) else 0
        if g_total != count or (len(totals) and totals.min() < 1):
            raise SketchError(
                "inconsistent quantile payload: g values do not sum to count"
            )
        if (values[1:] < values[:-1]).any():
            raise SketchError(
                "inconsistent quantile payload: tuples out of order"
            )
        sketch._values, sketch._g, sketch._delta = values, g, delta
        sketch._count = count
        return sketch

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The summary as ``(values, g, delta)`` arrays (inverse of
        :meth:`from_arrays`; callers must not write to them)."""
        return self._values, self._g, self._delta

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def query(self, quantile: float) -> float:
        """Value at the given quantile, within ``epsilon`` rank error.

        Standard GK answer: walk the summary and return the last tuple
        whose maximum possible rank does not overshoot the target by more
        than the error budget.
        """
        if not 0.0 <= quantile <= 1.0:
            raise SketchError(f"quantile must be in [0, 1], got {quantile}")
        if self._count == 0:
            raise SketchError("cannot query an empty quantile sketch")
        # The extremes are tracked exactly (delta 0 on first/last insert).
        if quantile == 0.0:
            return float(self._values[0])
        if quantile == 1.0:
            return float(self._values[-1])
        target = max(1.0, math.ceil(quantile * self._count))
        margin = max(self._epsilon * self._count, 1.0)
        # The answer is the tuple before the first one whose maximum
        # possible rank overshoots ``target + margin`` (tuple 0 if the
        # very first does; the last tuple if none does).
        overshoots = np.cumsum(self._g) + self._delta > target + margin
        first = int(np.argmax(overshoots)) if overshoots.any() else self.space
        return float(self._values[max(first - 1, 0)])

    def median(self) -> float:
        """Approximate median (the CUT default of Section 5.1)."""
        return self.query(0.5)

    def merge_summary(self) -> list[tuple[float, int, int]]:
        """Expose the summary tuples (value, g, delta) for inspection."""
        return list(
            zip(self._values.tolist(), self._g.tolist(), self._delta.tolist())
        )
