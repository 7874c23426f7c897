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

from repro.dataset.table import Table
from repro.errors import MapError, QueryError
from repro.query.query import ConjunctiveQuery

#: Region index assigned to tuples covered by no region of the map.
ESCAPE = -1


def assign_regions(regions, n_rows, mask_of) -> np.ndarray:
    """Region index per row: first matching region wins, else ESCAPE.

    The single implementation behind :meth:`DataMap.assign` and the
    engine's cached :meth:`~repro.engine.backends.ExactBackend.assignment`
    — ``mask_of`` abstracts how a region's row mask is obtained.
    """
    assignment = np.full(n_rows, ESCAPE, dtype=np.int64)
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
    counts = np.bincount(assignment[assignment >= 0], minlength=n_regions)
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
        region in display order, which keeps the result a function.
        """
        return assign_regions(
            self._regions, table.n_rows, lambda region: region.mask(table)
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
