"""The CUT primitive (paper Definition 1, Section 3.1).

``CUT_k(Q)`` splits the range ``S_k`` covered by the k-th predicate of a
conjunctive query into ``M`` disjoint sub-ranges whose union is ``S_k``,
producing a map of ``M`` regions.  The paper fixes ``M = 2`` by default
(Section 3.1, "Number of splits") but the implementation supports any M.

Cutting strategies (Section 3.1 / 5.1):

* numeric — ``median`` (equi-depth; the prototype's default per §5.1),
  ``equiwidth``, ``twomeans`` (exact 1-D intra-cluster-distance split),
  ``sketch`` (one-pass Greenwald–Khanna approximate quantiles);
* categorical — ``frequency``, ``alphabetic``, ``user_order``; labels are
  laid out in the chosen order and greedily grouped into M contiguous
  blocks of balanced cover mass.

When a region's values cannot be split (constant column, empty region,
all-missing), CUT degrades to the *trivial map* ``{Q}`` rather than
raising: candidate generation simply skips trivial maps.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import (
    AtlasConfig,
    CategoricalCutStrategy,  # noqa: F401 - legacy alias, re-exported
    NumericCutStrategy,  # noqa: F401 - legacy alias, re-exported
)
from repro.core.datamap import DataMap
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.engine.registry import (
    CATEGORICAL_ORDERS,
    NUMERIC_CUTS,
    register_categorical_cut,
    register_numeric_cut,
)
from repro.errors import MapError
from repro.query.predicate import (
    RangePredicate,
    SetPredicate,
)
from repro.query.query import ConjunctiveQuery
from repro.sketch.quantile import GKQuantileSketch


def cut(
    table: Table,
    query: ConjunctiveQuery,
    attribute: str,
    config: AtlasConfig | None = None,
    n_splits: int | None = None,
    *,
    region_mask: np.ndarray | None = None,
) -> DataMap:
    """Apply ``CUT_attribute`` to ``query`` over ``table``.

    Returns a :class:`DataMap` of at most ``n_splits`` regions based on
    ``attribute`` (exactly the paper's Definition 1), or the trivial map
    ``{query}`` when no split is possible.  ``region_mask`` lets callers
    that already evaluated the query (the engine's statistics cache)
    skip re-evaluating it here.
    """
    config = config or AtlasConfig()
    splits = config.n_splits if n_splits is None else int(n_splits)
    if splits < 2:
        raise MapError(f"CUT needs at least 2 splits, got {splits}")

    column = table.column(attribute)
    if region_mask is None:
        region_mask = query.mask(table)

    if isinstance(column, NumericColumn):
        regions = _cut_numeric(
            column, region_mask, query, attribute, splits, config
        )
    elif isinstance(column, CategoricalColumn):
        regions = _cut_categorical(
            column, region_mask, query, attribute, splits, config
        )
    else:  # pragma: no cover - no other column kinds exist
        raise MapError(f"cannot CUT column kind {column.kind}")

    if not regions:
        return DataMap([query], attributes=[attribute], label=f"cut:{attribute}")
    return DataMap(regions, attributes=[attribute], label=f"cut:{attribute}")


# --------------------------------------------------------------------- #
# Numeric cutting
# --------------------------------------------------------------------- #


def _cut_numeric(
    column: NumericColumn,
    region_mask: np.ndarray,
    query: ConjunctiveQuery,
    attribute: str,
    splits: int,
    config: AtlasConfig,
) -> list[ConjunctiveQuery]:
    values = column.data[region_mask]
    values = values[~np.isnan(values)]
    if values.size < 2:
        return []
    low, high = float(values.min()), float(values.max())
    if low == high:
        return []

    points = NUMERIC_CUTS.get(config.numeric_strategy)(values, splits, config)

    parent = query.predicate_on(attribute)
    points = _clean_cut_points(points, parent, low, high)
    if not points:
        return []
    sub_predicates = _numeric_subpredicates(parent, attribute, points)
    return [query.with_predicate(pred) for pred in sub_predicates]


def numeric_cut_points_median(values: np.ndarray, splits: int) -> list[float]:
    """Equi-depth cut points: quantiles at ``j / splits``."""
    quantiles = [j / splits for j in range(1, splits)]
    return [float(q) for q in np.quantile(values, quantiles)]


def numeric_cut_points_equiwidth(values: np.ndarray, splits: int) -> list[float]:
    """Equi-width cut points over the observed value range."""
    low, high = float(values.min()), float(values.max())
    return [low + (high - low) * j / splits for j in range(1, splits)]


def numeric_cut_points_sketch(
    values: np.ndarray, splits: int, epsilon: float
) -> list[float]:
    """One-pass approximate equi-depth cut points via a GK sketch (§5.1).

    Built with the canonical sorted-batch construction (one ``np.sort``
    + :meth:`GKQuantileSketch.from_sorted`) — the values are already an
    in-memory column, so sorting here is the whole "one pass".
    """
    sketch = GKQuantileSketch.from_sorted(np.sort(values), epsilon=epsilon)
    return [sketch.query(j / splits) for j in range(1, splits)]


def numeric_cut_points_kmeans(values: np.ndarray, splits: int) -> list[float]:
    """Intra-cluster-distance cut points ("as in K-means", Section 3.1).

    For 2 splits this is the *exact* 1-D 2-means split found by a sorted
    prefix scan; for more splits, Lloyd iterations refine equi-depth
    seeds, and cut points fall midway between adjacent clusters.
    """
    ordered = np.sort(values)
    if splits == 2:
        point = _exact_two_means_point(ordered)
        return [] if point is None else [point]
    return _lloyd_1d_cut_points(ordered, splits)


def _exact_two_means_point(ordered: np.ndarray) -> float | None:
    """Boundary minimizing total within-cluster sum of squares (exact)."""
    n = ordered.size
    if n < 2 or ordered[0] == ordered[-1]:
        return None
    prefix = np.cumsum(ordered)
    prefix_sq = np.cumsum(ordered * ordered)
    sizes_left = np.arange(1, n, dtype=np.float64)          # 1 .. n-1
    sum_left = prefix[:-1]
    sq_left = prefix_sq[:-1]
    sse_left = sq_left - (sum_left * sum_left) / sizes_left
    sizes_right = n - sizes_left
    sum_right = prefix[-1] - sum_left
    sq_right = prefix_sq[-1] - sq_left
    sse_right = sq_right - (sum_right * sum_right) / sizes_right
    total = sse_left + sse_right
    # Only boundaries between distinct values produce a real split.
    valid = ordered[:-1] < ordered[1:]
    if not valid.any():
        return None
    total = np.where(valid, total, np.inf)
    best = int(np.argmin(total))
    return float((ordered[best] + ordered[best + 1]) / 2.0)


def _lloyd_1d_cut_points(ordered: np.ndarray, splits: int) -> list[float]:
    """Lloyd's algorithm in 1-D with equi-depth seeding."""
    seeds = np.quantile(ordered, [(j + 0.5) / splits for j in range(splits)])
    centroids = np.unique(seeds.astype(np.float64))
    for _ in range(50):
        # Assign by nearest centroid; in 1-D boundaries are midpoints.
        boundaries = (centroids[:-1] + centroids[1:]) / 2.0
        labels = np.searchsorted(boundaries, ordered)
        updated = np.array(
            [
                ordered[labels == k].mean() if (labels == k).any() else centroids[k]
                for k in range(centroids.size)
            ]
        )
        if np.allclose(updated, centroids):
            break
        centroids = np.sort(updated)
    boundaries = (centroids[:-1] + centroids[1:]) / 2.0
    return [float(b) for b in boundaries]


def _clean_cut_points(
    points: list[float],
    parent: object,
    low: float,
    high: float,
) -> list[float]:
    """Deduplicate, sort, and keep only points strictly inside the range."""
    lower, upper = low, high
    if isinstance(parent, RangePredicate):
        lower = max(lower, parent.low)
        upper = min(upper, parent.high)
    cleaned: list[float] = []
    # NaN goes before the sort: it compares false both ways, so a NaN
    # inside the list would leave its neighbours unsorted.
    distinct = {float(p) for p in points}
    for point in sorted(p for p in distinct if not math.isnan(p)):
        if lower < point < upper or (point == lower and point < upper):
            # A point equal to the lower bound still splits when the
            # left side keeps at least the bound value itself (closed).
            if point != lower:
                cleaned.append(point)
            elif isinstance(parent, RangePredicate) and parent.closed_low:
                cleaned.append(point)
            elif not isinstance(parent, RangePredicate) and point > -math.inf:
                # Without a parent range the left piece is open at -inf,
                # so a point at -inf would leave it empty (and invalid).
                cleaned.append(point)
    # Points equal to `low` make a left region of only the minimum value;
    # that is a legal (if extreme) split.  Points >= upper are useless.
    return [p for p in cleaned if p < upper]


def _numeric_subpredicates(
    parent: object, attribute: str, points: list[float]
) -> list[RangePredicate]:
    """Build the partition ``[low, c1], (c1, c2], ..., (c_m, high]``."""
    if isinstance(parent, RangePredicate):
        low, high = parent.low, parent.high
        closed_low, closed_high = parent.closed_low, parent.closed_high
    else:
        low, high = float("-inf"), float("inf")
        closed_low, closed_high = False, False

    boundaries = [low] + list(points) + [high]
    predicates: list[RangePredicate] = []
    for index in range(len(boundaries) - 1):
        seg_low = boundaries[index]
        seg_high = boundaries[index + 1]
        seg_closed_low = closed_low if index == 0 else False
        seg_closed_high = closed_high if index == len(boundaries) - 2 else True
        predicates.append(
            RangePredicate(attribute, seg_low, seg_high, seg_closed_low, seg_closed_high)
        )
    return predicates


# --------------------------------------------------------------------- #
# Categorical cutting
# --------------------------------------------------------------------- #


def _cut_categorical(
    column: CategoricalColumn,
    region_mask: np.ndarray,
    query: ConjunctiveQuery,
    attribute: str,
    splits: int,
    config: AtlasConfig,
) -> list[ConjunctiveQuery]:
    parent = query.predicate_on(attribute)
    if isinstance(parent, SetPredicate):
        admitted = list(parent.ordered_values)
    else:
        admitted = list(column.categories)
    if len(admitted) < 2:
        return []

    codes = column.codes[region_mask]
    counts_by_code = np.bincount(
        codes[codes >= 0], minlength=len(column.categories)
    )
    label_counts = {
        cat: int(counts_by_code[code])
        for code, cat in enumerate(column.categories)
    }
    # Labels admitted by the predicate but absent from the column get 0.
    counts = {label: label_counts.get(label, 0) for label in admitted}

    ordered = ordered_labels(config.categorical_strategy, admitted, counts)
    groups = balanced_label_groups(ordered, counts, splits)
    if len(groups) < 2:
        return []
    return [
        query.with_predicate(SetPredicate(attribute, group)) for group in groups
    ]


def ordered_labels(
    strategy: object, admitted: list[str], counts: dict[str, int]
) -> list[str]:
    """Lay out categorical labels per the configured ordering strategy.

    Shared by the native and SQL-only engines; ``strategy`` may be a
    registry name or a :class:`CategoricalCutStrategy` member.
    """
    return CATEGORICAL_ORDERS.get(strategy)(list(admitted), counts)


def balanced_label_groups(
    ordered: list[str], counts: dict[str, int], splits: int
) -> list[list[str]]:
    """Greedy contiguous grouping of labels into mass-balanced blocks.

    Walks the labels in the given order and closes a block once its mass
    reaches the remaining-average target, always leaving enough labels for
    the remaining blocks.  All labels end up in exactly one block, so the
    blocks partition the admitted set (Definition 1's union constraint).
    """
    splits = min(splits, len(ordered))
    total = sum(counts[label] for label in ordered)
    groups: list[list[str]] = []
    current: list[str] = []
    current_mass = 0
    remaining_mass = total
    for index, label in enumerate(ordered):
        current.append(label)
        current_mass += counts[label]
        blocks_left = splits - len(groups)
        labels_left = len(ordered) - index - 1
        target = remaining_mass / blocks_left if blocks_left else float("inf")
        must_close = labels_left == blocks_left - 1 and blocks_left > 1
        if blocks_left > 1 and (current_mass >= target or must_close):
            groups.append(current)
            remaining_mass -= current_mass
            current = []
            current_mass = 0
    if current:
        groups.append(current)
    return [g for g in groups if g]


# --------------------------------------------------------------------- #
# Built-in strategy registrations
# --------------------------------------------------------------------- #
# The enums in :mod:`repro.core.config` are aliases: each member's value
# is the registry key registered here, so string and enum dispatch are
# interchangeable and third parties can add strategies without touching
# this module.


@register_numeric_cut("median")
def _median_strategy(values, splits, config):
    """Equi-depth splits — "currently, we use the median" (§5.1)."""
    return numeric_cut_points_median(values, splits)


@register_numeric_cut("equiwidth")
def _equiwidth_strategy(values, splits, config):
    """Equi-width splits — "fast and intuitive" (§3.1)."""
    return numeric_cut_points_equiwidth(values, splits)


@register_numeric_cut("twomeans")
def _twomeans_strategy(values, splits, config):
    """Intra-cluster-distance splits "as in K-means" (§3.1)."""
    return numeric_cut_points_kmeans(values, splits)


@register_numeric_cut("sketch")
def _sketch_strategy(values, splits, config):
    """One-pass GK approximate quantile splits (§5.1), at
    ``fidelity.epsilon`` rank error."""
    return numeric_cut_points_sketch(values, splits, config.fidelity.epsilon)


@register_categorical_cut("frequency")
def _frequency_order(labels, counts):
    """Most frequent first (ties alphabetic) — the §3.1 default."""
    return sorted(labels, key=lambda lab: (-counts[lab], lab))


@register_categorical_cut("alphabetic")
def _alphabetic_order(labels, counts):
    """"A simple alphabetic order" (§3.1)."""
    return sorted(labels)


@register_categorical_cut("user_order")
def _user_order(labels, counts):
    """"The order in which the user gives them" (§3.1)."""
    return list(labels)
