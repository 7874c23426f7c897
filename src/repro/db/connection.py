"""Connections: the driver abstraction of the Section-4 architecture.

The paper's prototype talks to MonetDB over its native MAPI driver and
notes a generic version would go through ODBC/JDBC with plain SQL.  Both
shapes exist here:

* :class:`NativeConnection` — the MAPI analogue: hands typed tables to
  the engine directly (what :class:`~repro.engine.facade.Explorer`
  uses).
* :class:`SqlConnection` — the ODBC/JDBC analogue: accepts only SQL
  text, runs it on an in-memory SQLite database (the standard library's
  ``sqlite3``) holding the registered tables, and keeps a statement log
  so tests can assert exactly what would cross the wire.

``SqlConnection.run_query`` executes the output of
:func:`repro.query.sql.query_to_sql`, closing the loop: every
conjunctive query the engine builds is executable through the generic
path, and :mod:`tests.db.test_equivalence` proves both paths agree.
"""

from __future__ import annotations

import abc
import functools
import sqlite3
import threading
from collections.abc import Callable, Sequence

from repro.dataset.column import (
    CategoricalColumn,
    NumericColumn,
    column_from_values,
)
from repro.dataset.table import Table
from repro.errors import DatasetError, QueryError
from repro.query.predicate import ContainsPredicate, MatchPredicate
from repro.query.query import ConjunctiveQuery
from repro.query.sql import count_to_sql, query_to_sql, quote_identifier
from repro.store.store import open_sqlite


class SqlExecutionError(QueryError):
    """SQLite refused or failed a statement (syntax, unknown name, write)."""


class Connection(abc.ABC):
    """A handle on a database the explorer can read."""

    @abc.abstractmethod
    def table_names(self) -> tuple[str, ...]:
        """Names of the visible relations."""

    @abc.abstractmethod
    def fetch(self, table_name: str) -> Table:
        """Materialize one relation."""


class NativeConnection(Connection):
    """Direct, typed access (the MAPI analogue)."""

    def __init__(self, tables: dict[str, Table] | None = None):
        self._tables = dict(tables or {})

    def register(self, table: Table) -> None:
        """Expose a table through the connection."""
        self._tables[table.name] = table

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def fetch(self, table_name: str) -> Table:
        try:
            return self._tables[table_name]
        except KeyError:
            raise QueryError(f"unknown table {table_name!r}") from None


class SqlConnection(Connection):
    """SQL-text-only access (the ODBC/JDBC analogue).

    Every call is SQL text run by SQLite — nothing bypasses the SQL
    surface, which is exactly the genericity constraint Section 4
    describes.  An authorizer admits only reads, so ``query`` cannot
    change the data; every ``sqlite3`` failure surfaces as
    :class:`SqlExecutionError`.  Text predicates run as the ``contains``
    and ``match`` SQL functions, over the same label tests the
    in-memory predicates use.  One lock serializes the statements, so
    service worker threads may share a connection.
    """

    def __init__(self, tables: dict[str, Table] | None = None):
        self._db = open_sqlite(":memory:")
        self._db.row_factory = None
        self._db.create_function("contains", 2, _contains, deterministic=True)
        self._db.create_function("match", 2, _match, deterministic=True)
        self._db.set_authorizer(_read_only)
        self._lock = threading.Lock()
        self._log: list[str] = []
        self._text_columns: dict[str, frozenset[str]] = {}
        for name, table in (tables or {}).items():
            self._load(name, table)

    def register(self, table: Table) -> None:
        """Expose a table through the connection."""
        self._load(table.name, table)

    def _load(self, name: str, table: Table) -> None:
        ident = quote_identifier(name)
        declared = ", ".join(
            f"{quote_identifier(column.name)} "
            + ("REAL" if isinstance(column, NumericColumn) else "TEXT")
            for column in table.columns
        )
        slots = ", ".join("?" * len(table.columns))
        rows = zip(
            *(
                # NaN is the substrate's missing number; SQL's is NULL.
                [None if v != v else v for v in column.data.tolist()]
                if isinstance(column, NumericColumn)
                else column.decode()
                for column in table.columns
            )
        )
        with self._lock:
            # Writes happen only here, with the read-only authorizer
            # lifted; reinstalling it expires every prepared statement.
            self._db.set_authorizer(None)
            try:
                with self._db:
                    self._db.execute(f"DROP TABLE IF EXISTS {ident}")
                    self._db.execute(f"CREATE TABLE {ident} ({declared})")
                    self._db.executemany(
                        f"INSERT INTO {ident} VALUES ({slots})", rows
                    )
            except sqlite3.Error as exc:  # e.g. names equal up to case
                raise SqlExecutionError(f"cannot load {name!r}: {exc}") from exc
            finally:
                self._db.set_authorizer(_read_only)
            self._text_columns[name] = frozenset(
                column.name
                for column in table.columns
                if not isinstance(column, NumericColumn)
            )

    @property
    def statement_log(self) -> tuple[str, ...]:
        """Every SQL statement executed, in order (``?`` marks a bound value)."""
        return tuple(self._log)

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._text_columns)

    def fetch(self, table_name: str) -> Table:
        names, rows = self._run(f"SELECT * FROM {quote_identifier(table_name)}")
        # An all-NULL TEXT column would otherwise infer as numeric.
        text = self._text_columns.get(table_name, frozenset())
        return _to_table(names, rows, table_name, text)

    def query(self, sql: str, params: Sequence[float] = ()) -> Table:
        """Execute raw SQL text, with ``params`` bound to its ``?`` slots."""
        names, rows = self._run(sql, params)
        return _to_table(names, rows, "result")

    def run_query(self, query: ConjunctiveQuery, table_name: str) -> Table:
        """Execute a conjunctive query through the SQL surface."""
        params: list[float] = []
        return self.query(query_to_sql(query, table_name, params), params)

    def count(self, query: ConjunctiveQuery, table_name: str) -> int:
        """COUNT(*) of a conjunctive query through the SQL surface."""
        params: list[float] = []
        __, rows = self._run(count_to_sql(query, table_name, params), params)
        return int(rows[0][0])

    def _run(
        self, sql: str, params: Sequence[float] = ()
    ) -> tuple[list[str], list[tuple]]:
        with self._lock:
            self._log.append(sql)
            try:
                cursor = self._db.execute(sql, params)
                rows = cursor.fetchall()
            except sqlite3.Error as exc:
                raise SqlExecutionError(f"{exc} in: {sql}") from exc
        return [entry[0] for entry in cursor.description or ()], rows


_READS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION}
)


def _read_only(action: int, *_: object) -> int:
    return sqlite3.SQLITE_OK if action in _READS else sqlite3.SQLITE_DENY


@functools.lru_cache(maxsize=256)
def _label_test(
    kind: type[ContainsPredicate] | type[MatchPredicate], text: str
) -> Callable[[str], bool]:
    return kind("label", text).admits_label


def _contains(label: str | None, needle: str) -> bool | None:
    """``contains(column, needle)``; NULL in, NULL out."""
    return None if label is None else _label_test(ContainsPredicate, needle)(label)


def _match(terms: str, label: str | None) -> bool | None:
    """SQLite rewrites ``column MATCH terms`` as ``match(terms, column)``."""
    return None if label is None else _label_test(MatchPredicate, terms)(label)


def _to_table(
    names: list[str],
    rows: list[tuple],
    name: str,
    text: frozenset[str] = frozenset(),
) -> Table:
    try:
        return Table(
            [
                (
                    CategoricalColumn.from_values
                    if column in text
                    else column_from_values
                )(column, [row[i] for row in rows])
                for i, column in enumerate(names)
            ],
            name=name,
        )
    except DatasetError as exc:  # an empty or repeated result column name
        raise SqlExecutionError(str(exc)) from exc
