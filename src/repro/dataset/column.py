"""Typed columns: the storage primitives of the columnar substrate.

Two concrete column types cover everything the Atlas pipeline needs:

* :class:`NumericColumn` — float64 storage, ``NaN`` marks missing values.
  Integers and date ordinals are coerced to float64 on construction;
  this mirrors how a column store hands a dense vector to the client.
* :class:`CategoricalColumn` — dictionary encoding: an ``int32`` code per
  row plus a tuple of category labels; code ``-1`` marks missing values.
  The labels live in one :class:`LabelDictionary` shared by every column
  derived from it; a stored one decodes its text on first use.

Columns are immutable after construction (the arrays are flagged
non-writeable) so tables can share them across selections without copies.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.dataset.types import (
    KEY_DISTINCT_RATIO,
    TEXT_CARDINALITY_LIMIT,
    ColumnKind,
    ColumnRole,
)
from repro.errors import DatasetError

#: Sentinel code for a missing categorical value.
MISSING_CODE = -1


class Column(abc.ABC):
    """Abstract typed column of length ``len(column)``.

    Concrete subclasses expose the raw numpy storage through ``.data``
    (numeric) or ``.codes``/``.categories`` (categorical).
    """

    __slots__ = ("_name", "_role")

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise DatasetError(f"column name must be a non-empty string, got {name!r}")
        self._name = name
        self._role: ColumnRole | None = None

    @property
    def name(self) -> str:
        """Column name as it appears in queries and rendered maps."""
        return self._name

    @property
    @abc.abstractmethod
    def kind(self) -> ColumnKind:
        """Physical kind (numeric or categorical)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of rows."""

    @abc.abstractmethod
    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column holding ``self`` at the given row indices."""

    @abc.abstractmethod
    def filter(self, mask: np.ndarray) -> "Column":
        """Return a new column with only the rows where ``mask`` is True."""

    @abc.abstractmethod
    def missing_mask(self) -> np.ndarray:
        """Boolean mask, True where the value is missing."""

    @abc.abstractmethod
    def distinct_count(self) -> int:
        """Number of distinct non-missing values."""

    @abc.abstractmethod
    def rename(self, name: str) -> "Column":
        """Return the same column under a different name (storage shared)."""

    @abc.abstractmethod
    def concat(self, other: "Column") -> "Column":
        """Return a new column holding ``self`` followed by ``other``.

        The streaming append path: both columns must share the physical
        kind; categorical concatenation unions the dictionaries
        (order-preserving, so parent codes survive unchanged).
        """

    def missing_count(self) -> int:
        """Number of missing rows."""
        return int(self.missing_mask().sum())

    def role(self) -> ColumnRole:
        """Classify the column per the Section-5.2 cardinality guard.

        A *key-like* column (near-unique identifiers) is excluded from
        mapping, as is a categorical column with more than
        ``TEXT_CARDINALITY_LIMIT`` distinct labels (free text).  What
        counts as key-like depends on the column kind — continuous
        measurements are always mappable even though every value is
        distinct, so :class:`NumericColumn` only flags *integer-valued*
        near-unique columns.

        The verdict is computed once per column object: columns are
        immutable, so it can never go stale.  Two threads racing on the
        first call compute the same verdict.
        """
        role = self._role
        if role is None:
            role = self._role = self._classify()
        return role

    def _classify(self) -> ColumnRole:
        """The uncached verdict behind :meth:`role`."""
        if len(self) == 0:
            return ColumnRole.DIMENSION
        if self._is_key_like():
            return ColumnRole.KEY
        if (
            self.kind is ColumnKind.CATEGORICAL
            and self.distinct_count() > TEXT_CARDINALITY_LIMIT
        ):
            return ColumnRole.TEXT
        return ColumnRole.DIMENSION

    def _is_key_like(self) -> bool:
        """True when the column looks like an identifier (near-unique)."""
        non_missing = len(self) - self.missing_count()
        if non_missing == 0:
            return False
        distinct = self.distinct_count()
        return distinct / non_missing >= KEY_DISTINCT_RATIO and distinct > 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} n={len(self)}>"


def _as_readonly(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array)
    if out is array:
        out = array.copy()
    out.setflags(write=False)
    return out


class NumericColumn(Column):
    """Dense float64 column; ``NaN`` encodes missing values."""

    __slots__ = ("_data",)

    def __init__(self, name: str, values: Sequence[float] | np.ndarray) -> None:
        super().__init__(name)
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 1:
            raise DatasetError(
                f"numeric column {name!r} needs a 1-D array, got shape {data.shape}"
            )
        self._data = _as_readonly(data)

    @property
    def kind(self) -> ColumnKind:
        return ColumnKind.NUMERIC

    @property
    def data(self) -> np.ndarray:
        """Read-only float64 array of the values."""
        return self._data

    def __len__(self) -> int:
        return int(self._data.shape[0])

    def take(self, indices: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.name, self._data[np.asarray(indices)])

    def filter(self, mask: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.name, self._data[np.asarray(mask, dtype=bool)])

    def rename(self, name: str) -> "NumericColumn":
        clone = NumericColumn.__new__(NumericColumn)
        Column.__init__(clone, name)
        clone._data = self._data
        return clone

    def concat(self, other: "Column") -> "NumericColumn":
        if not isinstance(other, NumericColumn):
            raise DatasetError(
                f"cannot concatenate numeric column {self.name!r} with a "
                f"{other.kind} column"
            )
        return NumericColumn(
            self.name, np.concatenate([self._data, other._data])
        )

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self._data)

    def distinct_count(self) -> int:
        valid = self._data[~np.isnan(self._data)]
        if valid.size == 0:
            return 0
        return int(np.unique(valid).size)

    def min(self) -> float:
        """Smallest non-missing value (NaN if the column is all-missing)."""
        valid = self._data[~np.isnan(self._data)]
        return float(valid.min()) if valid.size else float("nan")

    def max(self) -> float:
        """Largest non-missing value (NaN if the column is all-missing)."""
        valid = self._data[~np.isnan(self._data)]
        return float(valid.max()) if valid.size else float("nan")

    def mean(self) -> float:
        """Mean of non-missing values (NaN if the column is all-missing)."""
        valid = self._data[~np.isnan(self._data)]
        return float(valid.mean()) if valid.size else float("nan")

    def median(self) -> float:
        """Median of non-missing values (NaN if the column is all-missing)."""
        valid = self._data[~np.isnan(self._data)]
        return float(np.median(valid)) if valid.size else float("nan")

    def std(self) -> float:
        """Population standard deviation of non-missing values."""
        valid = self._data[~np.isnan(self._data)]
        return float(valid.std()) if valid.size else float("nan")

    def _is_key_like(self) -> bool:
        """Only integer-valued near-unique numerics look like keys.

        A continuous measurement (height, redshift) is distinct on every
        row yet is exactly what an explorer wants mapped; identifiers in
        real schemas are integers (or strings, handled by the categorical
        branch).
        """
        valid = self._data[~np.isnan(self._data)]
        if valid.size == 0:
            return False
        if not np.array_equal(valid, np.trunc(valid)):
            return False
        return super()._is_key_like()


class LabelDictionary:
    """A categorical column's labels, shared by identity with every
    column derived from it (``with_codes``/``take``/``filter``/``rename``).

    ``size`` is known up front, so codes are range-checked without the
    text.  Without ``labels``, ``decode`` (which validates) runs once, on
    first use, under a lock; a failed decode fails again on every use.
    """

    __slots__ = ("size", "_labels", "_decode", "_lock")

    def __init__(self, size: int, labels=None, decode=None) -> None:
        self.size: int = size
        self._labels: tuple[str, ...] | None = labels
        self._decode: Callable[[], tuple[str, ...]] | None = decode
        self._lock = threading.Lock()

    @property
    def labels(self) -> tuple[str, ...]:
        """The label tuple, indexed by code (decoded on first use)."""
        labels = self._labels
        if labels is None:
            with self._lock:
                labels = self._labels
                if labels is None:
                    assert self._decode is not None
                    labels = self._labels = self._decode()
                    self._decode = None
        return labels


class CategoricalColumn(Column):
    """Dictionary-encoded label column.

    ``codes`` holds one int32 per row indexing into ``categories``;
    ``MISSING_CODE`` (-1) encodes a missing value.  Categories are unique,
    order-preserving with respect to construction.
    """

    __slots__ = ("_codes", "_dictionary")

    def __init__(
        self, name: str, codes: np.ndarray, categories: Sequence[str]
    ) -> None:
        super().__init__(name)
        labels = tuple(map(str, categories))
        if len(set(labels)) != len(labels):
            raise DatasetError(f"categorical column {name!r} has duplicate categories")
        self._dictionary = LabelDictionary(len(labels), labels)
        self._codes = self._checked(codes)

    @classmethod
    def deferred(
        cls, name: str, codes: np.ndarray, size: int, decode: Callable
    ) -> "CategoricalColumn":
        """A column whose ``size`` labels come from ``decode`` on first
        use; the codes are checked against ``size`` now."""
        column = cls.__new__(cls)
        Column.__init__(column, name)
        column._dictionary = LabelDictionary(size, decode=decode)
        column._codes = column._checked(codes)
        return column

    def _checked(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as a read-only int32 copy, range-checked against
        the dictionary."""
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 1:
            raise DatasetError(
                f"categorical column {self.name!r} needs 1-D codes, got shape {codes.shape}"
            )
        if codes.size and (codes.max() >= self._dictionary.size
                           or codes.min() < MISSING_CODE):
            raise DatasetError(f"categorical column {self.name!r} has out-of-range codes")
        return _as_readonly(codes)

    def with_codes(self, codes: np.ndarray) -> "CategoricalColumn":
        """This column's name and dictionary over other ``codes``.

        The dictionary is shared by identity, not re-validated (it was
        when this column was built, or is on first use), so a derivation
        costs O(rows) and never touches label text.
        """
        clone = CategoricalColumn.__new__(CategoricalColumn)
        Column.__init__(clone, self._name)
        clone._dictionary = self._dictionary
        clone._codes = clone._checked(codes)
        return clone

    @classmethod
    def from_values(cls, name: str, values: Iterable[object]) -> "CategoricalColumn":
        """Build a column from raw labels; ``None``/``''`` become missing."""
        labels: list[str | None] = [
            None if v is None or (isinstance(v, float) and np.isnan(v)) or v == ""
            else str(v)
            for v in values
        ]
        categories: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(len(labels), dtype=np.int32)
        for i, label in enumerate(labels):
            if label is None:
                codes[i] = MISSING_CODE
                continue
            code = index.get(label)
            if code is None:
                code = len(categories)
                index[label] = code
                categories.append(label)
            codes[i] = code
        return cls(name, codes, categories)

    @property
    def kind(self) -> ColumnKind:
        return ColumnKind.CATEGORICAL

    @property
    def codes(self) -> np.ndarray:
        """Read-only int32 code array (-1 = missing)."""
        return self._codes

    @property
    def categories(self) -> tuple[str, ...]:
        """Tuple of distinct labels, indexed by code."""
        return self._dictionary.labels

    @property
    def n_categories(self) -> int:
        """``len(categories)``, known without decoding the labels."""
        return self._dictionary.size

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        return self.with_codes(self._codes[np.asarray(indices)])

    def filter(self, mask: np.ndarray) -> "CategoricalColumn":
        return self.with_codes(self._codes[np.asarray(mask, dtype=bool)])

    def rename(self, name: str) -> "CategoricalColumn":
        clone = CategoricalColumn.__new__(CategoricalColumn)
        Column.__init__(clone, name)
        clone._codes = self._codes
        clone._dictionary = self._dictionary
        return clone

    def concat(self, other: "Column") -> "CategoricalColumn":
        if not isinstance(other, CategoricalColumn):
            raise DatasetError(
                f"cannot concatenate categorical column {self.name!r} with "
                f"a {other.kind} column"
            )
        # Union dictionaries order-preservingly: existing categories keep
        # their codes, fresh labels from `other` are appended, so the
        # parent's code array transfers verbatim and only the delta rows
        # are remapped.
        categories = list(self.categories)
        index = {label: code for code, label in enumerate(categories)}
        remap = np.empty(other._dictionary.size + 1, dtype=np.int32)
        remap[-1] = MISSING_CODE  # other code -1 indexes the last slot
        for code, label in enumerate(other.categories):
            mapped = index.get(label)
            if mapped is None:
                mapped = len(categories)
                index[label] = mapped
                categories.append(label)
            remap[code] = mapped
        codes = np.concatenate([self._codes, remap[other._codes]])
        if len(categories) == self._dictionary.size:
            return self.with_codes(codes)  # no new label: keep the dictionary
        return CategoricalColumn(self.name, codes, categories)

    def missing_mask(self) -> np.ndarray:
        return self._codes == MISSING_CODE

    def distinct_count(self) -> int:
        present = np.unique(self._codes[self._codes != MISSING_CODE])
        return int(present.size)

    def value_counts(self) -> dict[str, int]:
        """Mapping label -> occurrence count (missing excluded)."""
        counts = np.bincount(
            self._codes[self._codes != MISSING_CODE], minlength=self._dictionary.size
        )
        return {cat: int(c) for cat, c in zip(self.categories, counts)}

    def decode(self) -> list[str | None]:
        """Materialize the labels row by row (None for missing)."""
        categories = self.categories
        return [
            None if code == MISSING_CODE else categories[code]
            for code in self._codes
        ]


def column_from_values(name: str, values: Iterable[object]) -> Column:
    """Build the most specific column type for ``values``.

    Numbers (and None/NaN) yield a :class:`NumericColumn`; anything else
    yields a :class:`CategoricalColumn`.  Mixed numeric/label input is
    treated as categorical, matching how CSV ingestion behaves.
    """
    materialized = list(values)
    data = np.empty(len(materialized), dtype=np.float64)
    for i, v in enumerate(materialized):
        if v is None:
            data[i] = np.nan
        elif isinstance(v, bool) or not isinstance(
            v, (int, float, np.integer, np.floating)
        ):
            return CategoricalColumn.from_values(name, materialized)
        else:
            data[i] = float(v)
    return NumericColumn(name, data)
