"""Column serialization for the persistent store.

The codec is deliberately dumb: a numeric column persists as its raw
float64 buffer, a categorical column as its raw int32 code buffer plus
its dictionary.  Decoding hands the buffers straight back to the column
constructors, so a round trip is bit-identical — the property the
warm-start fingerprint tests pin.

Each stored column is one row of the ``columns`` table of
:class:`repro.store.store.TableStore` (:func:`column_row` /
:func:`stored_column`), one per column per table version.  A dictionary
is stored as its labels' UTF-8 joined by ``"\\n"``, their int32
lengths, and a CRC-32 over both (:func:`dictionary_row`), written from a
column whose labels are known to be unique.  :func:`stored_column`
builds a column from a row's metadata; its buffers are fetched and
checked on first use.  Summary documents hold no column: their sample
is row positions in the stored table
(:func:`repro.sketch.state.encode_sample`).
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable

import numpy as np

from repro.dataset.column import (
    CategoricalColumn, Column, LabelDictionary, NumericColumn, check_codes,
)
from repro.dataset.table import Table
from repro.errors import DatasetError, StoreError

#: Column kinds the codec understands, by tag stored on disk.
_NUMERIC = "numeric"
_CATEGORICAL = "categorical"

#: Each kind's stored buffer element: float64 values or int32 codes.
_DTYPES = {_NUMERIC: np.dtype(np.float64), _CATEGORICAL: np.dtype(np.int32)}


def dictionary_row(
    text: str, lengths: np.ndarray
) -> tuple[bytes, bytes, int]:
    """A dictionary's stored ``(labels, label_lengths, checksum)``: the
    UTF-8 of its :func:`~repro.dataset.column.label_text`, the lengths
    as little-endian int32, and a CRC-32 over both."""
    data = text.encode("utf-8", "surrogatepass")
    sizes = np.asarray(lengths, dtype="<i4").tobytes()
    return data, sizes, zlib.crc32(sizes, zlib.crc32(data))


def column_row(column: Column) -> tuple:
    """One column's stored ``(name, kind, data, labels, n_labels,
    label_lengths, checksum)``; the dictionary fields are ``None`` for
    a numeric column."""
    if isinstance(column, NumericColumn):
        data = np.ascontiguousarray(column.data).tobytes()
        return column.name, _NUMERIC, data, None, None, None, None
    if not isinstance(column, CategoricalColumn):
        raise StoreError(
            f"cannot persist column {column.name!r} of kind {column.kind!r}"
        )
    data = np.ascontiguousarray(column.codes).tobytes()
    labels, sizes, checksum = dictionary_row(*column.dictionary.text())
    return column.name, _CATEGORICAL, data, labels, column.n_categories, sizes, checksum


def stored_column(
    name: str, kind: str, n_rows: int, size: int, n_labels: int | None, where: str,
    data: Callable[[], bytes], text: Callable[[], tuple]
) -> Column:
    """A store row's column from its metadata: ``n_rows`` rows in a
    ``size``-byte buffer (checked now).  ``data`` fetches the buffer and
    ``text`` the dictionary's ``(labels, label_lengths, checksum)`` on
    first use, when they are checked; every error names ``where``."""
    if kind not in _DTYPES:
        raise StoreError(f"{where} has unknown kind {kind!r}")
    dtype = _DTYPES[kind]
    if size != n_rows * dtype.itemsize:
        raise StoreError(
            f"{where} holds {size} bytes, expected {n_rows * dtype.itemsize} for {n_rows} rows"
        )
    if kind == _NUMERIC:
        return NumericColumn.stored(name, n_rows, lambda: np.frombuffer(data(), dtype=dtype))
    dictionary = stored_dictionary(n_labels, text, where)

    def codes() -> np.ndarray:
        array = np.frombuffer(data(), dtype=dtype)
        try:
            check_codes(name, array, dictionary.size)
        except DatasetError as exc:  # codes past the dictionary
            raise StoreError(f"{where}: {exc}") from exc
        return array

    return CategoricalColumn.stored(name, n_rows, codes, dictionary)


def stored_dictionary(
    n_labels: int | None, text: Callable[[], tuple], where: str
) -> LabelDictionary:
    """``n_labels`` labels whose ``text`` (``labels, label_lengths,
    checksum``) is fetched and checked by :func:`stored_text` on first use."""
    if n_labels is None:
        raise StoreError(f"stored dictionary of {where} has no label count")
    return LabelDictionary(n_labels, load=lambda: stored_text(*text(), n_labels, where))


def stored_text(
    labels: bytes | None,
    lengths: bytes | None,
    checksum: int | None,
    n_labels: int,
    where: str,
) -> tuple[str, np.ndarray]:
    """A stored dictionary's :func:`~repro.dataset.column.label_text`,
    checked: the CRC-32 over its bytes, ``n_labels`` lengths, and
    lengths that sum to the text.  Uniqueness was checked when the
    row was written."""
    if (
        labels is None
        or lengths is None
        or checksum != zlib.crc32(lengths, zlib.crc32(labels))
    ):
        problem = "fails its checksum"
    elif len(lengths) != 4 * n_labels:
        problem = f"has {len(lengths)} bytes of lengths, expected {4 * n_labels}"
    else:
        sizes = np.frombuffer(lengths, dtype="<i4")
        try:
            text = labels.decode("utf-8", "surrogatepass")
        except UnicodeDecodeError:
            problem = "is not UTF-8"
        else:
            if sizes.min(initial=0) >= 0 and (
                int(sizes.sum(dtype=np.int64)) + max(n_labels - 1, 0) == len(text)
            ):
                return text, sizes
            problem = "has label lengths that do not fit its text"
    raise StoreError(f"stored dictionary of {where} {problem}")


def stored_labels(aux: str, n_labels: int, where: str) -> tuple[str, ...]:
    """A schema-2 JSON dictionary's labels, checked in one pass:
    strings only (a stored label is never coerced), ``n_labels`` of
    them, no duplicates."""
    try:
        labels = json.loads(aux)
    except (TypeError, ValueError):
        problem = "is not valid JSON"
    else:
        if type(labels) is not list or not set(map(type, labels)) <= {str}:
            problem = "is not a list of strings"
        elif len(labels) != n_labels:
            problem = f"holds {len(labels)} labels, expected {n_labels}"
        elif len(set(labels)) != n_labels:
            problem = "has duplicate labels"
        else:
            return tuple(labels)
    raise StoreError(f"stored dictionary of {where} {problem}")


def table_schema(table: Table) -> list[dict]:
    """The schema document recorded alongside a registered table."""
    return [
        {"name": column.name, "kind": column.kind.value}
        for column in table.columns
    ]
