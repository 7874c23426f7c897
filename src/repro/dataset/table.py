"""The Table: an immutable columnar relation.

A :class:`Table` is a named, ordered collection of equal-length
:class:`~repro.dataset.column.Column` objects.  It supports exactly the
operations the Atlas engine pushes to the DBMS layer: projection, boolean
mask selection, random sampling, and per-column statistics.  Selections
return new tables that share no mutable state with their parent, which
keeps the exploration session free of aliasing surprises.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.dataset.column import (
    CategoricalColumn,
    Column,
    NumericColumn,
    column_from_values,
)
from repro.dataset.types import ColumnKind, ColumnRole
from repro.errors import SchemaError


class Table:
    """Immutable columnar relation.

    Parameters
    ----------
    columns:
        Columns in display order.  Names must be unique and lengths equal.
    name:
        Optional relation name (used by the catalog and SQL emitter).
    """

    __slots__ = ("_columns", "_order", "_name", "_n_rows", "_version")

    def __init__(self, columns: Iterable[Column], name: str = "table"):
        order: list[str] = []
        by_name: dict[str, Column] = {}
        n_rows: int | None = None
        for col in columns:
            if col.name in by_name:
                raise SchemaError(f"duplicate column name {col.name!r}")
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"column {col.name!r} has {len(col)} rows, expected {n_rows}"
                )
            by_name[col.name] = col
            order.append(col.name)
        self._columns = by_name
        self._order = tuple(order)
        self._name = name
        self._n_rows = 0 if n_rows is None else n_rows
        self._version = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Iterable[object]], name: str = "table"
    ) -> "Table":
        """Build a table from ``{column name: values}`` with type inference."""
        return cls(
            [column_from_values(col_name, values) for col_name, values in data.items()],
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Relation name."""
        return self._name

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def version(self) -> int:
        """Streaming version: 0 at construction, +1 per :meth:`append`.

        Derived tables (projections, selections, samples) carry the
        version of the table they were derived from, so caches keyed on
        ``(identity, version)`` can tell a pre-append snapshot from a
        post-append one.
        """
        return self._version

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in display order."""
        return self._order

    @property
    def columns(self) -> tuple[Column, ...]:
        """Columns in display order."""
        return tuple(self._columns[n] for n in self._order)

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def column(self, name: str) -> Column:
        """Fetch a column by name; raises :class:`SchemaError` if unknown."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self._name!r} has no column {name!r}; "
                f"known columns: {', '.join(self._order)}"
            ) from None

    def numeric(self, name: str) -> NumericColumn:
        """Fetch a column and require it to be numeric."""
        col = self.column(name)
        if not isinstance(col, NumericColumn):
            raise SchemaError(f"column {name!r} is {col.kind}, expected numeric")
        return col

    def categorical(self, name: str) -> CategoricalColumn:
        """Fetch a column and require it to be categorical."""
        col = self.column(name)
        if not isinstance(col, CategoricalColumn):
            raise SchemaError(f"column {name!r} is {col.kind}, expected categorical")
        return col

    def kinds(self) -> dict[str, ColumnKind]:
        """Mapping column name -> physical kind."""
        return {n: self._columns[n].kind for n in self._order}

    def dimension_columns(self) -> tuple[Column, ...]:
        """Columns eligible for map generation (Section-5.2 guard applied)."""
        return tuple(
            col for col in self.columns if col.role() is ColumnRole.DIMENSION
        )

    # ------------------------------------------------------------------ #
    # Relational operations
    # ------------------------------------------------------------------ #

    def _derived(self, columns: list[Column], name: str | None) -> "Table":
        """A new table inheriting this table's streaming version."""
        out = Table(columns, name=self._name if name is None else name)
        out._version = self._version
        return out

    def project(self, names: Sequence[str], name: str | None = None) -> "Table":
        """Keep only the named columns, in the given order."""
        return self._derived([self.column(n) for n in names], name)

    def select(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """Keep only the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise SchemaError(
                f"selection mask has shape {mask.shape}, expected ({self._n_rows},)"
            )
        return self._derived(
            [self._columns[n].filter(mask) for n in self._order], name
        )

    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        """Keep the rows at the given indices (with repetition allowed)."""
        # One read-only copy for every column: a stored column's take
        # holds its positions until its first read.
        indices = np.array(indices)
        indices.setflags(write=False)
        return self._derived(
            [self._columns[n].take(indices) for n in self._order], name
        )

    def sample(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> "Table":
        """Uniform sample without replacement of ``min(n, n_rows)`` rows."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        n = min(int(n), self._n_rows)
        indices = rng.choice(self._n_rows, size=n, replace=False)
        return self.take(np.sort(indices), name=f"{self._name}_sample")

    def with_column(self, column: Column) -> "Table":
        """Return a table with ``column`` appended (name must be fresh)."""
        return self._derived(list(self.columns) + [column], None)

    def rename(self, name: str) -> "Table":
        """Return the same table under a new relation name."""
        return self._derived(list(self.columns), name)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def append(
        self,
        rows: "Mapping[str, Iterable[object]] | Table",
        name: str | None = None,
    ) -> "Table":
        """Return a new table with ``rows`` appended and ``version`` + 1.

        ``rows`` is either a columnar mapping (``{column name: values}``,
        coerced to this table's column kinds) or a table with the same
        schema.  The receiver is untouched — streaming workloads hold a
        "current" table and replace it on every batch; everything keyed
        on the old object (memoized statistics, cached answers) stays
        valid *for the old version* and the new version gets fresh or
        incrementally-maintained state.
        """
        delta = self._coerce_delta(rows)
        out = Table(
            [
                self._columns[n].concat(delta.column(n))
                for n in self._order
            ],
            name=self._name if name is None else name,
        )
        out._version = self._version + 1
        return out

    def coerce_delta(
        self, rows: "Mapping[str, Iterable[object]] | Table"
    ) -> "Table":
        """``rows`` as the exact delta table :meth:`append` would add.

        Public so persistence layers can record the coerced delta
        (canonical column kinds, validated schema) instead of the raw
        mapping — replaying a recorded delta through :meth:`append`
        reproduces the appended table bit for bit, including the
        dictionary-union order of categorical columns.
        """
        return self._coerce_delta(rows)

    def _coerce_delta(
        self, rows: "Mapping[str, Iterable[object]] | Table"
    ) -> "Table":
        """``rows`` as a table matching this table's schema exactly."""
        if isinstance(rows, Table):
            delta = rows
        elif isinstance(rows, Mapping):
            delta = Table(
                [
                    self._delta_column(col_name, values)
                    for col_name, values in rows.items()
                ],
                name=f"{self._name}_delta",
            )
        else:
            raise SchemaError(
                "append takes a {column: values} mapping or a Table, "
                f"got {type(rows).__name__}"
            )
        if set(delta.column_names) != set(self._order):
            missing = sorted(set(self._order) - set(delta.column_names))
            extra = sorted(set(delta.column_names) - set(self._order))
            raise SchemaError(
                f"appended rows do not match the schema of {self._name!r}"
                + (f"; missing columns: {', '.join(missing)}" if missing else "")
                + (f"; unknown columns: {', '.join(extra)}" if extra else "")
            )
        for col_name in self._order:
            if delta.column(col_name).kind is not self._columns[col_name].kind:
                raise SchemaError(
                    f"appended column {col_name!r} is "
                    f"{delta.column(col_name).kind}, expected "
                    f"{self._columns[col_name].kind}"
                )
        return delta

    def _delta_column(self, col_name: str, values: Iterable[object]) -> Column:
        """Build one delta column with the kind of the existing column."""
        existing = self._columns.get(col_name)
        if isinstance(existing, NumericColumn):
            try:
                data = [np.nan if v is None else float(v) for v in values]
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"appended column {col_name!r} must be numeric: {exc}"
                ) from exc
            return NumericColumn(col_name, data)
        if isinstance(existing, CategoricalColumn):
            return CategoricalColumn.from_values(col_name, values)
        # Unknown column: infer; _coerce_delta rejects it with a clear
        # schema error naming the column.
        return column_from_values(col_name, values)

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def head(self, n: int = 5) -> list[dict[str, object]]:
        """First ``n`` rows as dictionaries (for quick inspection)."""
        n = min(n, self._n_rows)
        rows: list[dict[str, object]] = []
        decoded = {
            name: (
                col.decode()[:n]
                if isinstance(col, CategoricalColumn)
                else col.data[:n].tolist()
            )
            for name, col in ((nm, self._columns[nm]) for nm in self._order)
        }
        for i in range(n):
            rows.append({name: decoded[name][i] for name in self._order})
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Table {self._name!r} rows={self._n_rows} "
            f"cols=[{', '.join(self._order)}]>"
        )
