"""Column / table serialization for the persistent store.

The codec is deliberately dumb: a numeric column persists as its raw
float64 buffer, a categorical column as its raw int32 code buffer plus
the dictionary as JSON.  Decoding hands the buffers straight back to
the column constructors, so a round trip is bit-identical — the
property the warm-start fingerprint tests pin.

Two encodings share the per-column logic:

* **blob rows** (:func:`column_blob` / :func:`column_from_blob`) — the
  ``columns`` table of :class:`repro.store.store.TableStore`, one BLOB
  per column per table version;
* **JSON payloads** (:func:`encode_table_payload` /
  :func:`decode_table_payload`) — base64-wrapped blobs inside the
  summary documents, where the reservoir sample travels with its
  sketches.  A reservoir column whose dictionary equals its table's
  is written as codes plus a ``"dictionary": "table"`` marker and
  decoded against that table's labels: label text is stored once.
"""

from __future__ import annotations

import base64
import functools
import json

import numpy as np

from repro.dataset.column import CategoricalColumn, Column, NumericColumn
from repro.dataset.table import Table
from repro.errors import DatasetError, StoreError

#: Column kinds the codec understands, by tag stored on disk.
_NUMERIC = "numeric"
_CATEGORICAL = "categorical"


def column_blob(
    column: Column, *, dictionary: bool = True
) -> tuple[str, bytes, str | None]:
    """``(kind, raw buffer, aux JSON)`` for one column.

    ``aux`` carries the categorical dictionary (order matters — codes
    index into it) and is ``None`` for numeric columns, or when the
    caller keeps the ``dictionary`` elsewhere.
    """
    if isinstance(column, NumericColumn):
        return _NUMERIC, np.ascontiguousarray(column.data).tobytes(), None
    if isinstance(column, CategoricalColumn):
        return (
            _CATEGORICAL,
            np.ascontiguousarray(column.codes).tobytes(),
            json.dumps(list(column.categories)) if dictionary else None,
        )
    raise StoreError(
        f"cannot persist column {column.name!r} of kind {column.kind!r}"
    )


def column_from_blob(
    name: str,
    kind: str,
    blob: bytes,
    aux: str | None,
    n_labels: int | None = None,
    where: str | None = None,
) -> Column:
    """Rebuild one column from its stored row (inverse of
    :func:`column_blob`).

    ``where`` names a store row (table and version): its dictionary of
    ``n_labels`` labels is decoded on first use, and every error names
    the row.  Without it (a summary document's inline dictionary) the
    labels are decoded now.
    """
    if kind == _NUMERIC:
        return NumericColumn(name, np.frombuffer(blob, dtype=np.float64))
    if kind != _CATEGORICAL:
        raise StoreError(f"unknown stored column kind {kind!r} for {name!r}")
    if aux is None:
        raise StoreError(f"stored categorical column {name!r} has no dictionary")
    # The read-only view goes in as is; the constructor makes the one
    # copy that detaches the column from the blob.
    codes = np.frombuffer(blob, dtype=np.int32)
    if where is None:
        return CategoricalColumn(name, codes, json.loads(aux))
    where = f"column {name!r} of {where}"
    if n_labels is None:
        raise StoreError(f"stored dictionary of {where} has no label count")
    try:
        return CategoricalColumn.deferred(
            name, codes, n_labels, functools.partial(stored_labels, aux, n_labels, where)
        )
    except DatasetError as exc:  # codes past the dictionary
        raise StoreError(f"{where}: {exc}") from exc


def stored_labels(aux: str, n_labels: int, where: str) -> tuple[str, ...]:
    """A stored dictionary's labels, checked in one pass over the JSON
    list: strings only (a stored label is never coerced), ``n_labels``
    of them, no duplicates."""
    try:
        labels = json.loads(aux)
    except ValueError:
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


def encode_table_payload(table: Table, base: Table | None = None) -> dict:
    """The table as a JSON-ready document (blobs base64-wrapped).

    ``base`` is the table a reservoir was drawn from (same schema): a
    column whose label dictionary equals its namesake's there is
    written as codes only, marked ``"dictionary": "table"``, and
    :func:`decode_table_payload` binds it back to ``base``'s labels.
    """
    columns = []
    for column in table.columns:
        borrowed = (
            base is not None
            and isinstance(column, CategoricalColumn)
            and column.categories == base.categorical(column.name).categories
        )
        kind, blob, aux = column_blob(column, dictionary=not borrowed)
        entry = {
            "name": column.name,
            "kind": kind,
            "data": base64.b64encode(blob).decode("ascii"),
            "aux": aux,
        }
        if borrowed:
            entry["dictionary"] = "table"
        columns.append(entry)
    return {
        "name": table.name,
        "version": table.version,
        "n_rows": table.n_rows,
        "columns": columns,
    }


def _borrowed_column(entry: dict, base: Table | None) -> Column:
    """A codes-only column over ``base``'s dictionary of the same name
    (shared by identity; the codes are range-checked against it)."""
    name = entry["name"]
    if base is None:
        raise StoreError(
            f"stored column {name!r} borrows its table's label dictionary; "
            "restore_backend binds it"
        )
    codes = np.frombuffer(base64.b64decode(entry["data"]), dtype=np.int32)
    try:
        return base.categorical(name).with_codes(codes)
    except DatasetError as exc:  # no such label column, or codes past it
        raise StoreError(
            f"stored column {name!r} cannot borrow its dictionary from table "
            f"{base.name!r} at version {base.version}: {exc}"
        ) from exc


def decode_table_payload(payload: dict, base: Table | None = None) -> Table:
    """Inverse of :func:`encode_table_payload` (restores the version)."""
    columns = [
        _borrowed_column(entry, base)
        if entry.get("dictionary") == "table"
        else column_from_blob(
            entry["name"],
            entry["kind"],
            base64.b64decode(entry["data"]),
            entry.get("aux"),
        )
        for entry in payload["columns"]
    ]
    table = Table(columns, name=payload["name"])
    if table.n_rows != payload["n_rows"]:
        raise StoreError(
            f"stored table {payload['name']!r} decoded to {table.n_rows} "
            f"rows, expected {payload['n_rows']}"
        )
    table._version = int(payload["version"])
    return table


def table_schema(table: Table) -> list[dict]:
    """The schema document recorded alongside a registered table."""
    return [
        {"name": column.name, "kind": column.kind.value}
        for column in table.columns
    ]
