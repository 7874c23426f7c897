"""Conjunctive queries: ``Q = P_1 ∧ ... ∧ P_N`` (paper Section 3).

A :class:`ConjunctiveQuery` holds at most one predicate per attribute, in a
stable order.  It evaluates to a boolean row mask, measures its *cover*
``C(Q)`` (fraction of tuples it describes — Definition in Section 3), and
supports the conjunction used by the product operator (Definition 3).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.dataset.table import Table
from repro.errors import QueryError
from repro.query.predicate import AnyPredicate, Predicate


class ConjunctiveQuery:
    """An immutable conjunction of per-attribute predicates."""

    __slots__ = ("_predicates", "_hash")

    def __init__(self, predicates: Iterable[Predicate] = ()):
        ordered: dict[str, Predicate] = {}
        for pred in predicates:
            if pred.attribute in ordered:
                raise QueryError(
                    f"two predicates on attribute {pred.attribute!r}; "
                    "conjoin them with Predicate.intersect first"
                )
            ordered[pred.attribute] = pred
        self._predicates = ordered
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes mentioned by the query, in declaration order."""
        return tuple(self._predicates)

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        """All predicates in declaration order."""
        return tuple(self._predicates.values())

    @property
    def restrictive_predicates(self) -> tuple[Predicate, ...]:
        """Predicates other than ``any`` — what counts toward complexity.

        The paper's convenience constraint ("queries should be simple, with
        very few predicates") counts these.
        """
        return tuple(p for p in self._predicates.values() if p.is_restrictive)

    @property
    def n_predicates(self) -> int:
        """Number of restrictive predicates."""
        return len(self.restrictive_predicates)

    def predicate_on(self, attribute: str) -> Predicate | None:
        """The predicate restricting ``attribute``, or None."""
        return self._predicates.get(attribute)

    def __len__(self) -> int:
        return len(self._predicates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return set(self.predicates) == set(other.predicates)

    def __hash__(self) -> int:
        cached = self._hash  # immutable, so the first hash stands
        if cached is None:
            cached = self._hash = hash(frozenset(self.predicates))
        return cached

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of the rows of ``table`` the query describes."""
        result = np.ones(table.n_rows, dtype=bool)
        for pred in self._predicates.values():
            result &= pred.mask(table)
        return result

    def count(self, table: Table) -> int:
        """Number of rows described."""
        return int(self.mask(table).sum())

    def cover(self, table: Table) -> float:
        """``C(Q)``: described rows divided by total rows (Section 3)."""
        if table.n_rows == 0:
            return 0.0
        return self.count(table) / table.n_rows

    def evaluate(self, table: Table) -> Table:
        """The described sub-table (what the DBMS would return)."""
        return self.select_into(table, name=f"{table.name}_region")

    def select_into(self, table: Table, name: str) -> Table:
        """Like :meth:`evaluate` but with an explicit result name."""
        return table.select(self.mask(table), name=name)

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #

    def with_predicate(self, predicate: Predicate) -> "ConjunctiveQuery":
        """Replace/add the predicate on ``predicate.attribute``."""
        updated = dict(self._predicates)
        updated[predicate.attribute] = predicate
        return ConjunctiveQuery(updated.values())

    def conjoin(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery | None":
        """``self AND other`` with per-attribute intersection.

        Returns ``None`` when the two queries contradict each other on some
        attribute (the product operator drops such empty regions).
        """
        merged = dict(self._predicates)
        for attr, pred in other._predicates.items():
            mine = merged.get(attr)
            if mine is None:
                merged[attr] = pred
                continue
            both = mine.intersect(pred)
            if both is None:
                return None
            merged[attr] = both
        return ConjunctiveQuery(merged.values())

    def without_attribute(self, attribute: str) -> "ConjunctiveQuery":
        """Drop the predicate on ``attribute`` (no-op if absent)."""
        return ConjunctiveQuery(
            p for a, p in self._predicates.items() if a != attribute
        )

    def relax(self) -> "ConjunctiveQuery":
        """Replace every predicate with ``any`` (keeps the attribute list)."""
        return ConjunctiveQuery(
            AnyPredicate(attr) for attr in self._predicates
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """Plain-JSON form; the inverse of :meth:`from_dict`.

        Predicates keep their declaration order, so a round trip
        preserves display order as well as set semantics.
        """
        return {"predicates": [p.to_dict() for p in self._predicates.values()]}

    @classmethod
    def from_dict(cls, data: dict) -> "ConjunctiveQuery":
        """Rebuild a query from :meth:`to_dict` output."""
        if not isinstance(data, dict) or "predicates" not in data:
            raise QueryError(
                "expected a query dict with a 'predicates' list, "
                f"got {data!r}"
            )
        from repro.query.predicate import Predicate as _Predicate

        try:
            return cls(_Predicate.from_dict(p) for p in data["predicates"])
        except QueryError:
            raise
        except TypeError as exc:
            raise QueryError(f"malformed query dict: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """Multi-line rendering in the paper's Figure-2 syntax."""
        if not self._predicates:
            return "(true)"
        return "\n".join(p.describe() for p in self._predicates.values())

    def describe_inline(self) -> str:
        """Single-line rendering, predicates joined by `` ∧ ``."""
        if not self._predicates:
            return "(true)"
        return " ∧ ".join(p.describe() for p in self._predicates.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Query {self.describe_inline()}>"
