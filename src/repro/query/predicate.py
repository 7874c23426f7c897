"""Predicates of the conjunctive query language.

The paper restricts queries to conjunctions of per-attribute predicates
``P_k : att_k ∈ S_k`` (Section 3).  Three predicate shapes cover the
examples in the paper:

* :class:`RangePredicate` — ``Age: [17, 90]`` (ordinal attributes),
* :class:`SetPredicate` — ``Sex: {'Male'}`` (categorical attributes),
* :class:`AnyPredicate` — ``Salary: any`` (no restriction; it carries the
  attribute so CUT knows which columns the user cares about).

The text scenario (ROADMAP item: mixed numeric/categorical/text tables)
adds two predicate shapes over free-text columns:

* :class:`ContainsPredicate` — ``Title: contains 'disk'``
  (case-insensitive substring),
* :class:`MatchPredicate` — ``Body: match 'error timeout'`` (FTS-style
  conjunctive token match under :func:`tokenize_text`).

Every predicate evaluates to a boolean row mask against a table.  Missing
values never satisfy a restricting predicate, matching SQL three-valued
logic collapsed to "unknown is false".

New wire kinds are registered through :func:`register_predicate_kind`
(the public registry mirroring :mod:`repro.engine.registry`); the
built-in kinds — including ``contains`` and ``match`` — land through the
same call.
"""

from __future__ import annotations

import abc
import math
import re
from collections.abc import Callable, Iterable

import numpy as np

from repro.dataset.table import Table
from repro.errors import ConfigError, PredicateError

#: One FTS token: a maximal run of ASCII alphanumerics, lowercased.
_TOKEN_RE = re.compile(r"[0-9a-z]+")


def tokenize_text(text: str) -> tuple[str, ...]:
    """The FTS tokenizer: lowercased alphanumeric runs, in order.

    Shared by :class:`MatchPredicate`, the sketch backend's
    token-frequency summaries, and the SQL executor's ``MATCH``
    condition, so every layer agrees on what a "token" is.
    """
    return tuple(_TOKEN_RE.findall(str(text).lower()))


class Predicate(abc.ABC):
    """One per-attribute predicate ``att ∈ S``."""

    __slots__ = ("_attribute", "_hash")

    def __init__(self, attribute: str):
        if not attribute:
            raise PredicateError("predicate needs a non-empty attribute name")
        self._attribute = attribute
        self._hash: int | None = None

    @property
    def attribute(self) -> str:
        """Name of the attribute the predicate restricts."""
        return self._attribute

    @property
    def is_restrictive(self) -> bool:
        """False for ``any`` predicates, True otherwise."""
        return True

    @abc.abstractmethod
    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows in ``table`` satisfying the predicate."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Render the predicate in the paper's textual syntax."""

    @abc.abstractmethod
    def intersect(self, other: "Predicate") -> "Predicate | None":
        """Predicate equivalent to ``self AND other`` on the same attribute.

        Returns ``None`` when the conjunction is unsatisfiable.  Raises
        :class:`PredicateError` when the attributes differ or shapes are
        incompatible (range vs set).
        """

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Plain-JSON form tagged with a ``kind`` discriminator.

        The inverse of :meth:`Predicate.from_dict`; the wire shape of
        the service protocol (:mod:`repro.service.protocol`), mirroring
        :meth:`repro.core.config.AtlasConfig.to_dict`.
        """

    @staticmethod
    def from_dict(data: dict) -> "Predicate":
        """Rebuild any predicate from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise PredicateError(
                f"expected a predicate dict, got {type(data).__name__}"
            )
        kind = data.get("kind")
        builder = _PREDICATE_KINDS.get(kind)
        if builder is None:
            known = ", ".join(sorted(_PREDICATE_KINDS))
            raise PredicateError(
                f"unknown predicate kind {kind!r}; known kinds: {known}"
            )
        try:
            return builder(data)
        except KeyError as exc:
            raise PredicateError(
                f"predicate dict of kind {kind!r} is missing field {exc}"
            ) from None
        except PredicateError:
            raise
        except (TypeError, ValueError) as exc:
            # A malformed field value is the sender's fault, so it must
            # surface as a typed (bad-request) error, not an internal one.
            raise PredicateError(
                f"malformed predicate dict of kind {kind!r}: {exc}"
            ) from exc

    @abc.abstractmethod
    def _key(self) -> tuple:
        """Hashable identity used for __eq__/__hash__."""

    def _check_same_attribute(self, other: "Predicate") -> None:
        if self._attribute != other._attribute:
            raise PredicateError(
                f"cannot intersect predicates on different attributes: "
                f"{self._attribute!r} vs {other._attribute!r}"
            )

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # Memo keys hash the same predicates over and over; predicates
        # are immutable, so the first hash stands.
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((type(self).__name__, self._key()))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.describe()}>"


class AnyPredicate(Predicate):
    """No restriction: ``att: any``.  Matches every row, even missing."""

    __slots__ = ()

    @property
    def is_restrictive(self) -> bool:
        return False

    def mask(self, table: Table) -> np.ndarray:
        table.column(self._attribute)  # validate the attribute exists
        return np.ones(table.n_rows, dtype=bool)

    def describe(self) -> str:
        return f"{self._attribute}: any"

    def intersect(self, other: Predicate) -> Predicate:
        self._check_same_attribute(other)
        return other

    def to_dict(self) -> dict:
        return {"kind": "any", "attribute": self._attribute}

    def _key(self) -> tuple:
        return (self._attribute,)


class RangePredicate(Predicate):
    """Interval restriction on a numeric attribute: ``att ∈ [low, high]``.

    Bounds may individually be open or closed; infinite bounds express
    one-sided ranges.  The paper's examples use closed intervals.
    """

    __slots__ = ("_low", "_high", "_closed_low", "_closed_high")

    def __init__(
        self,
        attribute: str,
        low: float,
        high: float,
        closed_low: bool = True,
        closed_high: bool = True,
    ):
        super().__init__(attribute)
        low = float(low)
        high = float(high)
        if math.isnan(low) or math.isnan(high):
            raise PredicateError(f"range bounds on {attribute!r} may not be NaN")
        if low > high:
            raise PredicateError(
                f"inverted range on {attribute!r}: [{low}, {high}]"
            )
        if low == high and not (closed_low and closed_high):
            raise PredicateError(
                f"degenerate open range on {attribute!r} at {low} is empty"
            )
        self._low = low
        self._high = high
        self._closed_low = bool(closed_low)
        self._closed_high = bool(closed_high)

    @property
    def low(self) -> float:
        """Lower bound."""
        return self._low

    @property
    def high(self) -> float:
        """Upper bound."""
        return self._high

    @property
    def closed_low(self) -> bool:
        """True if the lower bound is included."""
        return self._closed_low

    @property
    def closed_high(self) -> bool:
        """True if the upper bound is included."""
        return self._closed_high

    @property
    def width(self) -> float:
        """Interval width (``high - low``)."""
        return self._high - self._low

    def mask(self, table: Table) -> np.ndarray:
        data = table.numeric(self._attribute).data
        lower = data >= self._low if self._closed_low else data > self._low
        upper = data <= self._high if self._closed_high else data < self._high
        result = lower & upper
        result[np.isnan(data)] = False
        return result

    def describe(self) -> str:
        lo = "[" if self._closed_low else "("
        hi = "]" if self._closed_high else ")"
        return f"{self._attribute}: {lo}{_fmt(self._low)}, {_fmt(self._high)}{hi}"

    def intersect(self, other: Predicate) -> Predicate | None:
        self._check_same_attribute(other)
        if isinstance(other, AnyPredicate):
            return self
        if not isinstance(other, RangePredicate):
            raise PredicateError(
                f"cannot intersect a range with a {type(other).__name__} "
                f"on {self._attribute!r}"
            )
        if self._low > other._low:
            low, closed_low = self._low, self._closed_low
        elif self._low < other._low:
            low, closed_low = other._low, other._closed_low
        else:
            low, closed_low = self._low, self._closed_low and other._closed_low
        if self._high < other._high:
            high, closed_high = self._high, self._closed_high
        elif self._high > other._high:
            high, closed_high = other._high, other._closed_high
        else:
            high, closed_high = self._high, self._closed_high and other._closed_high
        if low > high or (low == high and not (closed_low and closed_high)):
            return None
        return RangePredicate(self._attribute, low, high, closed_low, closed_high)

    def to_dict(self) -> dict:
        # Infinite bounds travel as strings — IEEE infinities are not
        # valid JSON numbers, and the service protocol must stay
        # parseable by strict decoders.
        return {
            "kind": "range",
            "attribute": self._attribute,
            "low": _bound_to_json(self._low),
            "high": _bound_to_json(self._high),
            "closed_low": self._closed_low,
            "closed_high": self._closed_high,
        }

    def _key(self) -> tuple:
        return (self._attribute, self._low, self._high,
                self._closed_low, self._closed_high)


class SetPredicate(Predicate):
    """Membership restriction on a categorical attribute: ``att ∈ {v1, ...}``.

    The order in which the caller lists the values is preserved in
    :attr:`ordered_values`: Section 3.1 of the paper suggests cutting
    categorical attributes "in the order in which the user gives them".
    """

    __slots__ = ("_values", "_ordered")

    def __init__(self, attribute: str, values: Iterable[str]):
        super().__init__(attribute)
        ordered: list[str] = []
        seen: set[str] = set()
        for v in values:
            label = str(v)
            if label not in seen:
                seen.add(label)
                ordered.append(label)
        if not ordered:
            raise PredicateError(f"empty set predicate on {attribute!r}")
        self._ordered = tuple(ordered)
        self._values = frozenset(ordered)

    @property
    def values(self) -> frozenset[str]:
        """The admitted labels."""
        return self._values

    @property
    def ordered_values(self) -> tuple[str, ...]:
        """The admitted labels in user-given order (duplicates removed)."""
        return self._ordered

    def mask(self, table: Table) -> np.ndarray:
        col = table.categorical(self._attribute)
        wanted_codes = {
            code for code, cat in enumerate(col.categories) if cat in self._values
        }
        if not wanted_codes:
            return np.zeros(table.n_rows, dtype=bool)
        return np.isin(col.codes, np.fromiter(wanted_codes, dtype=np.int32))

    def describe(self) -> str:
        inner = ", ".join(f"'{v}'" for v in sorted(self._values))
        return f"{self._attribute}: {{{inner}}}"

    def intersect(self, other: Predicate) -> Predicate | None:
        self._check_same_attribute(other)
        if isinstance(other, AnyPredicate):
            return self
        if isinstance(other, (ContainsPredicate, MatchPredicate)):
            # A text restriction over an explicit label set is just the
            # labels that pass the text test (the engine hits this when
            # it cuts an attribute a text predicate already restricts).
            kept = [v for v in self._ordered if other.admits_label(v)]
            if not kept:
                return None
            return SetPredicate(self._attribute, kept)
        if not isinstance(other, SetPredicate):
            raise PredicateError(
                f"cannot intersect a set with a {type(other).__name__} "
                f"on {self._attribute!r}"
            )
        common = self._values & other._values
        if not common:
            return None
        # Keep this predicate's user order for the surviving labels.
        return SetPredicate(
            self._attribute, [v for v in self._ordered if v in common]
        )

    def to_dict(self) -> dict:
        # User-given order is semantic (the ``user_order`` categorical
        # strategy follows it), so it is preserved on the wire.
        return {
            "kind": "set",
            "attribute": self._attribute,
            "values": list(self._ordered),
        }

    def _key(self) -> tuple:
        return (self._attribute, self._values)


#: The token alphabet of :func:`tokenize_text`, as a set for O(1)
#: boundary checks during joined-string scanning.
_ALNUM = frozenset("0123456789abcdefghijklmnopqrstuvwxyz")


def _scan_labels(dictionary, needles) -> np.ndarray:
    """Which dictionary labels pass every ``(needle, token_bounded)`` test.

    One C-speed :meth:`str.find` sweep per needle over the dictionary's
    scan index (its joined labels, lowered, built once per dictionary
    and never split into a tuple); the hit offsets map back to label
    codes in one ``searchsorted``.  ``token_bounded`` needles
    additionally require no alphanumeric neighbour on either side —
    exactly the maximal-run rule of :func:`tokenize_text` (the
    ``"\\n"`` separator is outside the token alphabet, and needles
    never contain it, so a hit cannot span two labels, and the next
    hit can start no earlier than this one ends).  The sweep is bounded
    by failed boundary checks plus hits — milliseconds instead of
    seconds on document dictionaries with 10^5+ distinct labels.
    """
    n = dictionary.size
    joined, starts = dictionary.scan_index()
    end = len(joined)
    admitted = np.ones(n, dtype=bool)
    for needle, token_bounded in needles:
        found = []
        width = len(needle)
        pos = joined.find(needle)
        while pos != -1:
            if token_bounded and not (
                (pos == 0 or joined[pos - 1] not in _ALNUM)
                and (pos + width == end or joined[pos + width] not in _ALNUM)
            ):
                pos = joined.find(needle, pos + 1)
                continue
            found.append(pos)
            pos = joined.find(needle, pos + width)
        hits = np.zeros(n, dtype=bool)
        hits[np.searchsorted(starts, found, side="right") - 1] = True
        admitted &= hits
        if not admitted.any():
            break
    return admitted


def _rows_with_labels(col, admitted: np.ndarray, n_rows: int) -> np.ndarray:
    """Row mask selecting the rows whose dictionary code is admitted."""
    wanted = np.flatnonzero(admitted)
    if wanted.size == 0:
        return np.zeros(n_rows, dtype=bool)
    return np.isin(col.codes, wanted.astype(np.int32))


class ContainsPredicate(Predicate):
    """Case-insensitive substring restriction on a text attribute.

    ``Title: contains 'disk'`` keeps the rows whose label contains the
    needle anywhere, ignoring case.  Evaluation tests each dictionary
    *label* once and selects rows by code, so the cost is
    ``O(categories + rows)`` — the dictionary encoding does the heavy
    lifting exactly as for :class:`SetPredicate`.
    """

    __slots__ = ("_needle",)

    def __init__(self, attribute: str, needle: str):
        super().__init__(attribute)
        needle = str(needle)
        if not needle:
            raise PredicateError(
                f"empty contains predicate on {attribute!r}"
            )
        self._needle = needle

    @property
    def needle(self) -> str:
        """The substring to look for (matched case-insensitively)."""
        return self._needle

    def mask(self, table: Table) -> np.ndarray:
        col = table.categorical(self._attribute)
        return _rows_with_labels(col, self.admitted(col.dictionary), table.n_rows)

    def admitted(self, dictionary) -> np.ndarray:
        """Per dictionary code: does its label pass this text test?"""
        lowered = self._needle.lower()
        if "\n" in lowered:
            # The needle could span the joined-scan separator; test
            # each label directly (rare: multi-line search strings).
            return np.fromiter(
                (lowered in label.lower() for label in dictionary.labels),
                dtype=bool,
                count=dictionary.size,
            )
        return _scan_labels(dictionary, [(lowered, False)])

    def admits_label(self, label: str) -> bool:
        """True when a dictionary label passes this text test."""
        return self._needle.lower() in label.lower()

    def describe(self) -> str:
        return f"{self._attribute}: contains '{self._needle}'"

    def intersect(self, other: Predicate) -> "Predicate | None":
        self._check_same_attribute(other)
        if isinstance(other, AnyPredicate):
            return self
        if isinstance(other, SetPredicate):
            # Explicit labels beat the text test: keep the ones passing.
            return other.intersect(self)
        if isinstance(other, ContainsPredicate):
            # Substring containment makes one predicate imply the other;
            # anything else has no single-contains equivalent.
            if self._needle.lower() in other._needle.lower():
                return other
            if other._needle.lower() in self._needle.lower():
                return self
            raise PredicateError(
                f"cannot express contains {self._needle!r} AND contains "
                f"{other._needle!r} on {self._attribute!r} as one "
                "predicate; use a match predicate for multi-term search"
            )
        raise PredicateError(
            f"cannot intersect a contains with a {type(other).__name__} "
            f"on {self._attribute!r}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": "contains",
            "attribute": self._attribute,
            "needle": self._needle,
        }

    def _key(self) -> tuple:
        return (self._attribute, self._needle.lower())


class MatchPredicate(Predicate):
    """FTS-style conjunctive token match on a text attribute.

    ``Body: match 'error timeout'`` keeps the rows whose label contains
    *every* query token under :func:`tokenize_text` — the AND semantics
    of an FTS5 ``MATCH`` query.  Like :class:`ContainsPredicate`, the
    labels are tested once and rows selected by dictionary code.
    """

    __slots__ = ("_terms",)

    def __init__(self, attribute: str, terms: str | Iterable[str]):
        super().__init__(attribute)
        if isinstance(terms, str):
            raw: Iterable[str] = (terms,)
        else:
            raw = terms
        ordered: list[str] = []
        seen: set[str] = set()
        for chunk in raw:
            for token in tokenize_text(str(chunk)):
                if token not in seen:
                    seen.add(token)
                    ordered.append(token)
        if not ordered:
            raise PredicateError(
                f"match predicate on {attribute!r} has no searchable "
                "tokens"
            )
        self._terms = tuple(ordered)

    @property
    def terms(self) -> tuple[str, ...]:
        """The required tokens, first-seen order (duplicates removed)."""
        return self._terms

    def mask(self, table: Table) -> np.ndarray:
        col = table.categorical(self._attribute)
        return _rows_with_labels(col, self.admitted(col.dictionary), table.n_rows)

    def admitted(self, dictionary) -> np.ndarray:
        """Per dictionary code: does its label hold every term?"""
        return _scan_labels(dictionary, [(term, True) for term in self._terms])

    def admits_label(self, label: str) -> bool:
        """True when a dictionary label contains every required token."""
        return set(self._terms) <= set(tokenize_text(label))

    def describe(self) -> str:
        return f"{self._attribute}: match '{' '.join(self._terms)}'"

    def intersect(self, other: Predicate) -> "Predicate | None":
        self._check_same_attribute(other)
        if isinstance(other, AnyPredicate):
            return self
        if isinstance(other, SetPredicate):
            return other.intersect(self)
        if isinstance(other, MatchPredicate):
            # AND of two conjunctive token matches is the token union.
            return MatchPredicate(
                self._attribute, self._terms + other._terms
            )
        raise PredicateError(
            f"cannot intersect a match with a {type(other).__name__} "
            f"on {self._attribute!r}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": "match",
            "attribute": self._attribute,
            "terms": list(self._terms),
        }

    def _key(self) -> tuple:
        return (self._attribute, frozenset(self._terms))


def _bound_to_json(value: float) -> float | str:
    """A range bound as a JSON-safe scalar (infinities as strings)."""
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return value


#: ``kind`` discriminator → constructor from a wire dict.  Mutated only
#: through :func:`register_predicate_kind` (import-time registration; no
#: runtime lock needed — registries are frozen before threads start,
#: matching :mod:`repro.engine.registry`).
_PREDICATE_KINDS: dict[str, Callable[[dict], Predicate]] = {}


def register_predicate_kind(
    kind: str,
    builder: Callable[[dict], Predicate],
    *,
    overwrite: bool = False,
) -> None:
    """Register a wire ``kind`` discriminator for :meth:`Predicate.from_dict`.

    ``builder`` receives the wire dict and returns the predicate; field
    errors it raises (``KeyError``/``TypeError``/``ValueError``) are
    translated to typed :class:`PredicateError`\\ s by ``from_dict``.
    Registering a ``kind`` that already exists raises
    :class:`~repro.errors.ConfigError` unless ``overwrite=True`` —
    the same duplicate discipline as the strategy registries of
    :mod:`repro.engine.registry`.
    """
    if not kind or not isinstance(kind, str):
        raise ConfigError(
            f"predicate kind must be a non-empty string, got {kind!r}"
        )
    if not callable(builder):
        raise ConfigError(
            f"predicate builder for {kind!r} must be callable, "
            f"got {type(builder).__name__}"
        )
    if kind in _PREDICATE_KINDS and not overwrite:
        raise ConfigError(
            f"predicate kind {kind!r} is already registered; pass "
            "overwrite=True to replace it"
        )
    _PREDICATE_KINDS[kind] = builder


def registered_predicate_kinds() -> tuple[str, ...]:
    """Every wire ``kind`` currently registered, sorted."""
    return tuple(sorted(_PREDICATE_KINDS))


# The built-in kinds land through the public call, exactly like the
# built-in cutting strategies seed repro.engine.registry.
register_predicate_kind("any", lambda d: AnyPredicate(d["attribute"]))
register_predicate_kind(
    "range",
    lambda d: RangePredicate(
        d["attribute"],
        float(d["low"]),
        float(d["high"]),
        bool(d.get("closed_low", True)),
        bool(d.get("closed_high", True)),
    ),
)
register_predicate_kind(
    "set", lambda d: SetPredicate(d["attribute"], d["values"])
)
register_predicate_kind(
    "contains", lambda d: ContainsPredicate(d["attribute"], d["needle"])
)
register_predicate_kind(
    "match", lambda d: MatchPredicate(d["attribute"], d["terms"])
)


def _fmt(value: float) -> str:
    """Format a bound compactly: integers without decimals, inf as symbol.

    Non-integer bounds use ``repr`` (the shortest digits that parse
    back to the same float) — ``%g``'s 6-significant-digit rounding
    broke the describe → parse round trip on bounds like ``-999999.5``.
    """
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
