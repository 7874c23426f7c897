"""Typed columns: the storage primitives of the columnar substrate.

Two concrete column types cover everything the Atlas pipeline needs:

* :class:`NumericColumn` — float64 storage, ``NaN`` marks missing values.
  Integers and date ordinals are coerced to float64 on construction;
  this mirrors how a column store hands a dense vector to the client.
* :class:`CategoricalColumn` — dictionary encoding: an ``int32`` code per
  row plus a tuple of category labels; code ``-1`` marks missing values.
  The labels live in one :class:`LabelDictionary` shared by every column
  derived from it; a stored one keeps them as one ``"\\n"``-joined
  text, loaded on first use.

Columns are immutable after construction (the arrays are flagged
non-writeable) so tables can share them across selections without copies.
A column that :meth:`Column.concat` builds views the front of a growable
buffer with spare capacity after its rows (see :func:`_grown`): its
first successor writes the appended rows into that tail, so a chain of
appends costs the delta, not the table.
A stored column (``NumericColumn.stored`` / ``CategoricalColumn.stored``)
knows its length up front and loads its buffer from a :class:`Deferred`
on first read; so does its ``take``, which gathers its rows from that
buffer on its own first read.  A column built from values pays nothing
for this, and its ``take`` gathers at once.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Callable, Iterable, Sequence
from typing import Generic, TypeVar

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

#: Capacity of a buffer that :func:`_grown` allocates, as a multiple
#: of the rows it holds: a chain of appends copies once per 25 % growth.
_GROWTH = 1.25

T = TypeVar("T")


class Deferred(Generic[T]):
    """A value loaded on first use: the first :meth:`get` runs ``load``
    under the holder's lock; a failed load keeps the loader, so it fails
    again on every read."""

    __slots__ = ("_value", "_load", "_lock")

    def __init__(self, load: Callable[[], T]) -> None:
        self._value: T  # guarded-by: _lock
        self._load: Callable[[], T] | None = load  # guarded-by: _lock
        self._lock = threading.Lock()

    def get(self) -> T:
        with self._lock:
            if self._load is not None:
                self._value, self._load = self._load(), None
            return self._value


class Column(abc.ABC):
    """Abstract typed column of length ``len(column)``.

    Concrete subclasses expose the raw numpy storage through ``.data``
    (numeric) or ``.codes``/``.categories`` (categorical).
    """

    __slots__ = ("_name", "_role", "_spare")

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise DatasetError(f"column name must be a non-empty string, got {name!r}")
        self._name = name
        self._role: ColumnRole | None = None
        # The growable buffer this column's array views (concat only).
        self._spare: _Spare | None = None

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
        """The uncached verdict behind :meth:`role` (one distinct count)."""
        non_missing = len(self) - self.missing_count()
        if non_missing == 0 or not self._may_be_key():
            return ColumnRole.DIMENSION
        distinct = self.distinct_count()
        if distinct / non_missing >= KEY_DISTINCT_RATIO and distinct > 8:
            return ColumnRole.KEY
        if (
            self.kind is ColumnKind.CATEGORICAL
            and distinct > TEXT_CARDINALITY_LIMIT
        ):
            return ColumnRole.TEXT
        return ColumnRole.DIMENSION

    def _may_be_key(self) -> bool:
        """False when the column cannot be an identifier whatever its
        distinct count (so the count is never taken)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} n={len(self)}>"


def _as_readonly(array: np.ndarray) -> np.ndarray:
    """A read-only contiguous copy of an array passed in from outside."""
    out = np.ascontiguousarray(array)
    if out is array:
        out = array.copy()
    out.setflags(write=False)
    return out


def _owned(array: np.ndarray) -> np.ndarray:
    """An array this module just allocated, flagged read-only in place."""
    array.setflags(write=False)
    return array


class _Spare:
    """A buffer that a chain of concatenated columns shares: rows
    ``[0, used)`` belong to the longest of them, the rest is free."""

    __slots__ = ("array", "used", "lock")

    def __init__(self, array: np.ndarray, used: int) -> None:
        self.array = array
        self.used = used  # guarded-by: lock
        self.lock = threading.Lock()


def _grown(
    values: np.ndarray, spare: _Spare | None, delta: np.ndarray
) -> tuple[np.ndarray, _Spare]:
    """``values`` followed by ``delta``, as a view of a growable buffer
    (for the new column to flag read-only), and that buffer.

    ``values`` is the view ``spare`` (if any) holds at its front.  When
    no other column has claimed rows past it and ``delta`` fits, it
    claims them under the buffer's lock and writes ``delta`` there: the
    views of earlier columns end before those rows, so they never see
    them.  Otherwise (a second successor of one column, or a full
    buffer) both are copied into a fresh buffer with spare capacity.
    """
    n, end = len(values), len(values) + len(delta)
    if spare is not None:
        with spare.lock:
            claimed = spare.used == n and end <= len(spare.array)
            if claimed:
                spare.used = end
        if claimed:
            spare.array[n:end] = delta
            return spare.array[:end], spare
    array = np.empty(max(end, int(end * _GROWTH)), dtype=values.dtype)
    array[:n] = values
    array[n:end] = delta
    spare = _Spare(array, end)
    return array[:end], spare


def check_codes(name: str, codes: np.ndarray, size: int) -> None:
    """Raise :class:`DatasetError` unless ``codes`` is 1-D and every
    code indexes a dictionary of ``size`` labels or is missing."""
    if codes.ndim != 1:
        raise DatasetError(
            f"categorical column {name!r} needs 1-D codes, got shape {codes.shape}"
        )
    if codes.size and (codes.max() >= size or codes.min() < MISSING_CODE):
        raise DatasetError(f"categorical column {name!r} has out-of-range codes")


class _Stored(Column):
    """A stored column: its length is known up front, and its buffer
    (the slot named ``_BUFFER``) is ``_buffer``'s, loaded on first read.
    A take of it is stored too (see :meth:`_gather`)."""

    __slots__ = ()
    _BUFFER: str
    _length: int
    _buffer: Deferred[np.ndarray]

    def __init__(self, name: str, length: int, load: Callable[[], np.ndarray]) -> None:
        Column.__init__(self, name)
        self._length, self._buffer = length, Deferred(load)

    def __len__(self) -> int:
        return self._length

    def __getattr__(self, attr: str) -> np.ndarray:
        # Reached only while the slot is unset: later reads are plain.
        if attr != self._BUFFER:
            raise AttributeError(attr)
        buffer = self._buffer.get()
        setattr(self, attr, buffer)
        return buffer

    def _gather(self, indices: np.ndarray) -> tuple[int, Callable[[], np.ndarray]] | None:
        """The length of a take at ``indices`` and its loader, which
        reads this column's buffer (loading it, with its checks) and
        gathers the rows; None unless ``indices`` are 1-D integers in
        range, so an eager take raises as it always did.  Read-only
        ``indices`` (one :meth:`Table.take` array shared by every
        column) are kept as they are; others are copied, since the
        caller keeps its own."""
        rows, n = np.asarray(indices), self._length
        if rows.flags.writeable:
            rows = rows.copy()
        if (
            rows.ndim != 1
            or rows.dtype.kind not in "iu"
            or (rows.size and (rows.min() < -n or rows.max() >= n))
        ):
            return None
        return len(rows), lambda: _owned(getattr(self, self._BUFFER)[rows])


class NumericColumn(Column):
    """Dense float64 column; ``NaN`` encodes missing values."""

    __slots__ = ("_data", "_order")

    def __init__(self, name: str, values: Sequence[float] | np.ndarray) -> None:
        super().__init__(name)
        data = np.asarray(values, dtype=np.float64)
        if data.ndim != 1:
            raise DatasetError(
                f"numeric column {name!r} needs a 1-D array, got shape {data.shape}"
            )
        self._data = _as_readonly(data)
        self._order: np.ndarray | bool | None = None

    @staticmethod
    def _over(
        name: str, data: np.ndarray, spare: _Spare | None = None
    ) -> "NumericColumn":
        """A column over ``data``, a float64 array this module just
        allocated (flagged read-only in place, not copied)."""
        if data.ndim != 1:
            raise DatasetError(
                f"numeric column {name!r} needs a 1-D array, got shape {data.shape}"
            )
        column = NumericColumn.__new__(NumericColumn)
        Column.__init__(column, name)
        column._data, column._order, column._spare = _owned(data), None, spare
        return column

    @staticmethod
    def stored(name: str, length: int, load: Callable[[], np.ndarray]) -> "NumericColumn":
        """``length`` values that ``load`` returns, read-only, on first read."""
        return _StoredNumeric(name, length, load)

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
        return NumericColumn._over(self.name, self._data[np.asarray(indices)])

    def filter(self, mask: np.ndarray) -> "NumericColumn":
        return NumericColumn._over(self.name, self._data[np.asarray(mask, dtype=bool)])

    def rename(self, name: str) -> "NumericColumn":
        clone = NumericColumn.__new__(NumericColumn)
        Column.__init__(clone, name)
        clone._data, clone._order = self._data, self._order
        return clone

    def concat(self, other: "Column") -> "NumericColumn":
        if not isinstance(other, NumericColumn):
            raise DatasetError(
                f"cannot concatenate numeric column {self.name!r} with a "
                f"{other.kind} column"
            )
        return NumericColumn._over(
            self.name, *_grown(self._data, self._spare, other._data)
        )

    def missing_mask(self) -> np.ndarray:
        return np.isnan(self._data)

    def distinct_count(self) -> int:
        valid = self._data[~np.isnan(self._data)]
        if valid.size == 0:
            return 0
        return int(np.unique(valid).size)

    def sorted_order(self) -> np.ndarray | None:
        """Row positions of the non-missing values in ascending value
        order (int32 below 2**31 rows), or None on the first call.

        The first call only marks the column, so a column read once
        never pays the sort; the second builds the order and later
        calls return it.  Columns are immutable, so it never goes
        stale, and two threads racing on a build compute equal arrays.
        """
        order = self._order
        if order is None:
            self._order = False
            return None
        if order is False:
            data = self._data
            valid = len(data) - int(np.count_nonzero(np.isnan(data)))
            dtype = np.int32 if len(data) < 2**31 else np.int64
            order = np.argsort(data)[:valid].astype(dtype)  # NaN sorts last
            order.setflags(write=False)
            self._order = order
        return order

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

    def _may_be_key(self) -> bool:
        """Only integer-valued near-unique numerics look like keys.

        A continuous measurement (height, redshift) is distinct on every
        row yet is exactly what an explorer wants mapped; identifiers in
        real schemas are integers (or strings, handled by the categorical
        branch).
        """
        valid = self._data[~np.isnan(self._data)]
        return bool(np.array_equal(valid, np.trunc(valid)))


def label_text(labels: Sequence[str]) -> tuple[str, np.ndarray]:
    """``labels`` as one text joined by ``"\\n"``, plus each label's
    length in code points (a label may itself hold a ``"\\n"``)."""
    lengths = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    return "\n".join(labels), lengths


def _label_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each label starts in its joined text."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1] + 1, out=starts[1:])  # +1: the separator
    return starts


def _split_text(text: str, lengths: np.ndarray) -> tuple[str, ...]:
    """The label tuple of a joined text (inverse of :func:`label_text`)."""
    if text.count("\n") == len(lengths) - 1:  # no label holds a "\n"
        return tuple(text.split("\n"))
    return tuple(
        text[start:start + length]
        for start, length in zip(_label_starts(lengths).tolist(), lengths.tolist())
    )


def _scan_index(text: str, lengths: np.ndarray) -> tuple[str, np.ndarray]:
    """The joined text lowered, plus label start offsets.

    One ``lower()`` over the whole text equals the labels lowered one
    by one and joined: the separator is not a cased letter, so it ends
    a final sigma's context.  Only when lowering changes the length
    (``'İ'`` lowers to two code points) do the offsets move; then the
    labels are lowered one by one.
    """
    lowered = text.lower()
    if len(lowered) != len(text):
        lowered, lengths = label_text(
            [label.lower() for label in _split_text(text, lengths)]
        )
    return lowered, _label_starts(lengths)


class LabelDictionary:
    """A categorical column's labels, shared by identity with every
    column derived from it (``with_codes``/``take``/``filter``/``rename``).

    ``size`` is known up front, so codes are range-checked without the
    text.  A stored dictionary keeps its :func:`label_text` in a
    :class:`Deferred` holder: ``load`` (which validates) runs on first
    use, and a failed load fails again on every use; the label tuple
    is sliced from the text on the tuple's first read.  One built from
    labels keeps only those.  :meth:`scan_index`, built once, is what
    text predicates sweep, so they never build the tuple; the
    label-to-code index behind :meth:`merged` is built once too.
    """

    __slots__ = ("size", "_labels", "_stored", "_scan", "_index", "_lock")

    def __init__(
        self,
        size: int,
        labels: tuple[str, ...] | None = None,
        load: Callable[[], tuple[str, np.ndarray]] | None = None,
    ) -> None:
        self.size: int = size
        self._labels = labels
        self._stored = None if load is None else Deferred(load)
        self._scan: tuple[str, np.ndarray] | None = None  # guarded-by: _lock
        self._index: dict[str, int] | None = None  # guarded-by: _lock
        self._lock = threading.Lock()

    def text(self) -> tuple[str, np.ndarray]:
        """The labels joined by ``"\\n"`` and their lengths (the stored form)."""
        if self._stored is None:  # the labels are kept, not their text
            assert self._labels is not None
            return label_text(self._labels)
        return self._stored.get()

    @property
    def labels(self) -> tuple[str, ...]:
        """The label tuple, indexed by code (sliced on first use)."""
        labels = self._labels
        if labels is None:
            with self._lock:
                labels = self._labels
                if labels is None:
                    labels = self._labels = _split_text(*self.text())
        return labels

    def scan_index(self) -> tuple[str, np.ndarray]:
        """The lowered joined text and each label's offset in it."""
        with self._lock:
            if self._scan is None:
                self._scan = _scan_index(*self.text())
            return self._scan

    def merged(self, labels: Sequence[str]) -> tuple["LabelDictionary", np.ndarray]:
        """This dictionary followed by the ``labels`` it lacks (in their
        order), and each of ``labels``' codes in it plus a final
        ``MISSING_CODE``, so indexing with code ``-1`` stays missing.

        Only ``labels`` are looked up, in the index this dictionary
        builds once; with no fresh label the dictionary is this one.
        """
        ordered = self.labels  # takes the lock itself
        with self._lock:
            if self._index is None:
                self._index = dict(zip(ordered, range(len(ordered))))
            index = self._index
        fresh: dict[str, int] = {}  # ``labels`` are unique
        codes = []
        for label in labels:
            code = index.get(label)
            if code is None:
                code = fresh[label] = self.size + len(fresh)
            codes.append(code)
        codes.append(MISSING_CODE)
        remap = np.array(codes, dtype=np.int32)
        if not fresh:
            return self, remap
        grown = LabelDictionary(self.size + len(fresh), self.labels + tuple(fresh))
        grown._index = {**index, **fresh}
        return grown, remap


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

    @staticmethod
    def stored(
        name: str, length: int, load: Callable[[], np.ndarray], dictionary: LabelDictionary
    ) -> "CategoricalColumn":
        """``length`` codes over ``dictionary`` that ``load`` returns,
        read-only and range-checked, on first read."""
        column = _StoredCategorical(name, length, load)
        column._dictionary = dictionary
        return column

    def _checked(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as a read-only int32 copy, range-checked against
        the dictionary."""
        codes = np.asarray(codes, dtype=np.int32)
        check_codes(self.name, codes, self._dictionary.size)
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

    @staticmethod
    def _over(
        name: str,
        codes: np.ndarray,
        dictionary: LabelDictionary,
        spare: _Spare | None = None,
    ) -> "CategoricalColumn":
        """A column over ``codes``, an int32 array this module just
        allocated from codes valid in ``dictionary`` (flagged read-only
        in place; neither copied nor re-checked)."""
        if codes.ndim != 1:
            raise DatasetError(
                f"categorical column {name!r} needs 1-D codes, got shape {codes.shape}"
            )
        column = CategoricalColumn.__new__(CategoricalColumn)
        Column.__init__(column, name)
        column._dictionary, column._codes = dictionary, _owned(codes)
        column._spare = spare
        return column

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
        dictionary = LabelDictionary(len(categories), tuple(categories))
        return CategoricalColumn._over(name, codes, dictionary)

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
    def dictionary(self) -> LabelDictionary:
        """The shared label holder (stored form, scan index)."""
        return self._dictionary

    @property
    def n_categories(self) -> int:
        """``len(categories)``, known without decoding the labels."""
        return self._dictionary.size

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        codes = self._codes[np.asarray(indices)]
        return CategoricalColumn._over(self._name, codes, self._dictionary)

    def filter(self, mask: np.ndarray) -> "CategoricalColumn":
        codes = self._codes[np.asarray(mask, dtype=bool)]
        return CategoricalColumn._over(self._name, codes, self._dictionary)

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
        # parent's (checked) codes transfer verbatim and only the delta
        # rows are remapped and checked.
        dictionary, remap = self._dictionary.merged(other.categories)
        delta = remap[other._codes]  # code -1 indexes the final slot
        check_codes(self.name, delta, dictionary.size)
        codes, spare = _grown(self._codes, self._spare, delta)
        return CategoricalColumn._over(self.name, codes, dictionary, spare)

    def missing_mask(self) -> np.ndarray:
        return self._codes == MISSING_CODE

    def distinct_count(self) -> int:
        present = self._codes[self._codes >= 0]
        return int(np.count_nonzero(
            np.bincount(present, minlength=self._dictionary.size)
        ))

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


class _StoredNumeric(_Stored, NumericColumn):
    __slots__ = ("_length", "_buffer")
    _BUFFER = "_data"

    def __init__(self, name: str, length: int, load: Callable[[], np.ndarray]) -> None:
        _Stored.__init__(self, name, length, load)
        self._order = None

    def take(self, indices: np.ndarray) -> NumericColumn:
        taken = self._gather(indices)
        if taken is None:
            return NumericColumn.take(self, indices)
        return NumericColumn.stored(self._name, *taken)


class _StoredCategorical(_Stored, CategoricalColumn):
    __slots__ = ("_length", "_buffer")
    _BUFFER = "_codes"

    def take(self, indices: np.ndarray) -> CategoricalColumn:
        taken = self._gather(indices)
        if taken is None:
            return CategoricalColumn.take(self, indices)
        return CategoricalColumn.stored(self._name, *taken, self._dictionary)


def concat_taken(
    head: Column, keep: np.ndarray | None, tail: Column, rows: np.ndarray
) -> Column:
    """``head.take(keep).concat(tail.take(rows))`` in one fresh array.

    ``keep`` None keeps every head row.  ``tail``'s dictionary must
    extend ``head``'s (a later version of one column): the result is
    over ``tail``'s dictionary, so it is the column ``take`` would give
    over a table holding both sides' rows.
    """
    if isinstance(head, NumericColumn) and isinstance(tail, NumericColumn):
        head_values, tail_values = head._data, tail._data
    elif isinstance(head, CategoricalColumn) and isinstance(tail, CategoricalColumn):
        head_values, tail_values = head._codes, tail._codes
    else:
        raise DatasetError(
            f"cannot concatenate {head.kind} column {head.name!r} with a "
            f"{tail.kind} column"
        )
    n_head = len(head_values) if keep is None else len(keep)
    values = np.empty(n_head + len(rows), dtype=head_values.dtype)
    if keep is None:
        values[:n_head] = head_values
    else:
        np.take(head_values, keep, out=values[:n_head])
    np.take(tail_values, rows, out=values[n_head:])
    if isinstance(tail, CategoricalColumn):
        return CategoricalColumn._over(head.name, values, tail._dictionary)
    return NumericColumn._over(head.name, values)


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
