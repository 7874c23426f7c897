"""The DataMap: a set of region queries over a dataset (paper Section 2).

``M = {Q_0, ..., Q_M}`` — each region is a conjunctive query; together
they partition (a subset of) the data described by the user query.  The
map also knows which attributes it "is based on" (Definition 4 needs
this for composition) and can compute its *underlying variable*
(Definition 2): the region index of a random tuple, with an explicit
escape outcome for tuples matching no region (missing values, dropped
empty intersections).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.errors import MapError, QueryError
from repro.query.predicate import RangePredicate, SetPredicate
from repro.query.query import ConjunctiveQuery

#: Region index assigned to tuples covered by no region of the map.
ESCAPE = -1


def assignment_dtype(n_regions: int) -> np.dtype:
    """Storage type of a map's assignment vector.

    ``int8`` while region indices (and ``index + 1``) fit in it, which
    covers every map the pipeline builds; ``int64`` above 126 regions.
    """
    return np.dtype(np.int8 if n_regions < 127 else np.int64)


def assign_regions(regions, table: Table, mask_of) -> np.ndarray:
    """Region index per row: first matching region wins, else ESCAPE.

    The single implementation behind :meth:`DataMap.assign` and the
    engine's cached :meth:`~repro.engine.backends.ExactBackend.assignment`
    — ``mask_of`` abstracts how a query's row mask is obtained.

    Every map the pipeline builds is a grid: a CUT tiles its parent
    interval or partitions its label set, and a product conjoins such
    tilings.  A grid map is assigned in one pass (:func:`_grid_split`):
    a row's cell is a mixed-radix number with one digit per split
    attribute (the row's bin) and a last binary digit saying whether
    the row lies inside the grid and the shared predicates' mask; a
    cell → region table maps it to the answer.  Any other map takes
    the per-region mask loop, :func:`_assign_by_masks`.
    """
    dtype = assignment_dtype(len(regions))
    grid = _grid_split(regions, table)
    if grid is None:
        return _assign_by_masks(regions, table.n_rows, mask_of, dtype)
    shared, splits, cells = grid
    inside = (
        np.array(mask_of(ConjunctiveQuery(shared)), dtype=bool)
        if shared else np.ones(table.n_rows, dtype=bool)
    )
    # The narrowest signed type holding every cell number below 2 * cells.
    code = np.zeros(table.n_rows, dtype=np.min_scalar_type(-2 * cells))
    for column, pieces, __ in splits:
        code *= len(pieces)
        if isinstance(pieces[0], RangePredicate):
            _add_range_bins(code, inside, column.data, pieces)
        else:
            _add_label_bins(code, inside, column, pieces)
    code *= 2
    code += inside.view(np.int8)
    # Even cells hold the rows outside, all ESCAPE.  Filling the odd
    # ones in reverse lets the first of two equal regions win.
    lookup = np.full(2 * cells, ESCAPE, dtype=dtype)
    for index in range(len(regions) - 1, -1, -1):
        cell = 0
        for __, pieces, region_pieces in splits:
            cell = cell * len(pieces) + region_pieces[index]
        lookup[2 * cell + 1] = index
    return lookup.take(code)


def _grid_split(regions, table: Table):
    """``(shared, splits, cells)`` when the map is a grid over ``table``.

    ``shared`` lists the predicates identical in every region; each
    split is ``(column, pieces, region_pieces)``: the attribute's column,
    its distinct predicates (contiguous ranges in ascending order, or
    pairwise-disjoint label sets) and each region's piece index;
    ``cells`` is the product of the piece counts.  None sends the map
    to the mask loop: regions over different attributes, a split on
    ``any`` or text predicates or on mixed kinds, pieces that overlap
    or leave a gap, a predicate whose kind does not match the column's
    (the loop raises the usual error), or more than 2**20 cells.
    """
    attributes = regions[0].attributes
    names = set(attributes)
    if any(set(region.attributes) != names for region in regions):
        return None
    shared: list = []
    splits: list = []
    cells = 1
    for attribute in attributes:
        predicates = [region.predicate_on(attribute) for region in regions]
        pieces = list(dict.fromkeys(predicates))
        if len(pieces) == 1:
            shared.append(pieces[0])
            continue
        if attribute not in table:
            return None
        column = table.column(attribute)
        if all(type(p) is RangePredicate for p in pieces):
            pieces.sort(key=lambda p: (p.low, p.high))
            if not isinstance(column, NumericColumn) or not _tiles(pieces):
                return None
        elif all(type(p) is SetPredicate for p in pieces):
            labels = [label for p in pieces for label in p.values]
            disjoint = len(set(labels)) == len(labels)
            if not isinstance(column, CategoricalColumn) or not disjoint:
                return None
        else:
            return None
        cells *= len(pieces)
        if cells > 1 << 20:
            return None
        index_of = {piece: index for index, piece in enumerate(pieces)}
        splits.append((column, pieces, [index_of[p] for p in predicates]))
    if not splits:
        return None
    return shared, splits, cells


def _tiles(pieces) -> bool:
    """True when sorted ranges meet end to end, each boundary owned by
    exactly one side (no overlap, no gap)."""
    return all(
        left.high == right.low and left.closed_high != right.closed_low
        for left, right in zip(pieces, pieces[1:])
    )


def _add_range_bins(code, inside, data, pieces) -> None:
    """Add each row's bin among sorted contiguous ranges to ``code``;
    clear ``inside`` for rows outside them (NaN too).

    The comparisons are :meth:`RangePredicate.mask`'s own, one per
    boundary: a row is past a boundary its left piece owns when it is
    ``>`` it, past one its right piece owns when it is ``>=``.
    """
    first, last = pieces[0], pieces[-1]
    inside &= data >= first.low if first.closed_low else data > first.low
    inside &= data <= last.high if last.closed_high else data < last.high
    for piece in pieces[:-1]:
        past = data > piece.high if piece.closed_high else data >= piece.high
        code += past.view(np.int8)


def _add_label_bins(code, inside, column, pieces) -> None:
    """Add the index of the piece admitting each row's label to
    ``code``; clear ``inside`` for labels no piece admits and missing
    codes.  Labels resolve as in :meth:`SetPredicate.mask`."""
    piece_of = {
        label: index for index, piece in enumerate(pieces)
        for label in piece.values
    }
    # One slot per code, plus a last one that the missing code -1 reads.
    bins = np.full(column.n_categories + 1, -1, dtype=code.dtype)
    bins[:-1] = np.fromiter(
        (piece_of.get(label, -1) for label in column.categories),
        dtype=code.dtype, count=column.n_categories,
    )
    rows = bins.take(column.codes)
    inside &= rows >= 0
    np.maximum(rows, 0, out=rows)
    code += rows


def _assign_by_masks(regions, n_rows: int, mask_of, dtype) -> np.ndarray:
    """The per-region loop: scatter each region's mask in display order."""
    assignment = np.full(n_rows, ESCAPE, dtype=dtype)
    unassigned = np.ones(n_rows, dtype=bool)
    for index, region in enumerate(regions):
        hit = mask_of(region) & unassigned
        assignment[hit] = index
        unassigned &= ~hit
        if not unassigned.any():
            break
    return assignment


def covers_from_assignment(assignment: np.ndarray, n_regions: int) -> np.ndarray:
    """Per-region cover fractions from an assignment vector."""
    if assignment.size == 0:
        return np.zeros(n_regions, dtype=np.float64)
    # Shift ESCAPE to bin 0 rather than filter it out: one pass, no copy.
    counts = np.bincount(assignment + 1, minlength=n_regions + 1)[1:]
    return counts.astype(np.float64) / assignment.size


class DataMap:
    """An immutable set of region queries.

    Parameters
    ----------
    regions:
        The region queries.  Order is preserved (display order).
    attributes:
        The attributes this map is "based on" — the ones its CUTs split.
        Defaults to the union of attributes over the regions.
    label:
        Human-readable name used in rendered output.
    """

    __slots__ = ("_regions", "_attributes", "_label")

    def __init__(
        self,
        regions: Sequence[ConjunctiveQuery],
        attributes: Sequence[str] | None = None,
        label: str | None = None,
    ):
        regions = tuple(regions)
        if not regions:
            raise MapError("a data map needs at least one region")
        if attributes is None:
            seen: list[str] = []
            for region in regions:
                for attr in region.attributes:
                    if attr not in seen:
                        seen.append(attr)
            attributes = seen
        self._regions = regions
        self._attributes = tuple(attributes)
        self._label = label if label is not None else ", ".join(self._attributes)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def regions(self) -> tuple[ConjunctiveQuery, ...]:
        """The region queries."""
        return self._regions

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes the map is based on (used by composition)."""
        return self._attributes

    @property
    def label(self) -> str:
        """Display label."""
        return self._label

    @property
    def n_regions(self) -> int:
        """Number of regions (the paper caps this at 8)."""
        return len(self._regions)

    @property
    def max_predicates(self) -> int:
        """Largest restrictive-predicate count over the regions."""
        return max(r.n_predicates for r in self._regions)

    @property
    def is_trivial(self) -> bool:
        """True when the map has a single region (no split happened)."""
        return len(self._regions) == 1

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataMap):
            return NotImplemented
        return set(self._regions) == set(other._regions)

    def __hash__(self) -> int:
        return hash(frozenset(self._regions))

    def relabel(self, label: str) -> "DataMap":
        """Same map with a new display label."""
        return DataMap(self._regions, self._attributes, label)

    # ------------------------------------------------------------------ #
    # The underlying variable (Definition 2)
    # ------------------------------------------------------------------ #

    def assign(self, table: Table) -> np.ndarray:
        """Region index per row of ``table`` (``ESCAPE`` when uncovered).

        Rows matching several regions (possible only for maps that violate
        the CUT disjointness contract) are assigned to the first matching
        region in display order, which keeps the result a function.  The
        vector's dtype follows :func:`assignment_dtype`.
        """
        return assign_regions(
            self._regions, table, lambda query: query.mask(table)
        )

    def covers(self, table: Table) -> np.ndarray:
        """Cover ``C(Q)`` of each region against ``table`` (Section 3)."""
        if table.n_rows == 0:
            return np.zeros(len(self._regions), dtype=np.float64)
        return covers_from_assignment(self.assign(table), len(self._regions))

    def distribution(self, table: Table) -> np.ndarray:
        """Distribution of the underlying variable including escape mass.

        Index ``i`` is region ``i``; the last entry is the escape outcome.
        Always sums to 1 on a non-empty table.
        """
        if table.n_rows == 0:
            raise MapError("cannot take a distribution over an empty table")
        covers = self.covers(table)
        escape = max(0.0, 1.0 - float(covers.sum()))
        return np.concatenate([covers, [escape]])

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def drop_empty_regions(
        self, table: Table, min_cover: float = 0.0
    ) -> "DataMap":
        """Remove regions whose cover is ``<= min_cover`` (keeps >= 1)."""
        covers = self.covers(table)
        kept = [
            region
            for region, cover in zip(self._regions, covers)
            if cover > min_cover
        ]
        if not kept:
            # Keep the largest region rather than returning an empty map.
            kept = [self._regions[int(np.argmax(covers))]]
        return DataMap(kept, self._attributes, self._label)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-JSON form: regions, attributes, and label.

        The inverse of :meth:`from_dict`, mirroring
        :meth:`repro.core.config.AtlasConfig.to_dict` — this is how maps
        cross the service boundary (:mod:`repro.service.protocol`).
        Region order, the based-on attribute tuple, and the display
        label all survive the round trip.
        """
        return {
            "regions": [region.to_dict() for region in self._regions],
            "attributes": list(self._attributes),
            "label": self._label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataMap":
        """Rebuild a map from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "regions" not in data:
            raise MapError(
                f"expected a data-map dict with a 'regions' list, got {data!r}"
            )
        attributes = data.get("attributes")
        try:
            return cls(
                [ConjunctiveQuery.from_dict(r) for r in data["regions"]],
                attributes=tuple(attributes) if attributes is not None else None,
                label=data.get("label"),
            )
        except (MapError, QueryError):
            raise
        except TypeError as exc:
            raise MapError(f"malformed data-map dict: {exc}") from exc

    def describe(self) -> str:
        """Multi-line rendering: one region per paragraph."""
        blocks = [
            f"Region {i}:\n{_indent(region.describe())}"
            for i, region in enumerate(self._regions)
        ]
        return f"Map [{self._label}]\n" + "\n".join(blocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DataMap {self._label!r} regions={len(self._regions)}>"


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())
