"""SQL emission: the ODBC/JDBC escape hatch of Section 4.

The paper notes that a generic Atlas would talk standard SQL to any DBMS.
This module renders conjunctive queries as SQL so the engine's decisions
remain executable against a real database (SQLite, through
:class:`repro.db.connection.SqlConnection`), and so tests can assert the
exact text a driver would receive.
"""

from __future__ import annotations

import math

from repro.errors import QueryError
from repro.query.predicate import (
    AnyPredicate,
    ContainsPredicate,
    MatchPredicate,
    Predicate,
    RangePredicate,
    SetPredicate,
)
from repro.query.query import ConjunctiveQuery


def quote_identifier(name: str) -> str:
    """Double-quote an identifier, doubling embedded quotes."""
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: str) -> str:
    """Single-quote a string literal, doubling embedded quotes."""
    return "'" + value.replace("'", "''") + "'"


def _number(value: float, params: list[float] | None) -> str:
    """A finite bound: an integer inline, any other as a ``?`` slot.

    SQLite's decimal parser can land one ulp off a ``repr`` literal, so
    a row sitting on a cut point would change sides; a bound parameter
    reaches the engine bit for bit.  Without ``params`` the literal is
    inlined, which is for display only.
    """
    value = float(value)
    if value.is_integer() and abs(value) < 2.0**53:
        return str(int(value))
    if params is None:
        return repr(value)
    params.append(value)
    return "?"


def predicate_to_sql(
    predicate: Predicate, params: list[float] | None = None
) -> str:
    """Render one predicate as a SQL boolean expression.

    Non-integer range bounds are appended to ``params`` and rendered as
    ``?`` slots, in the order they appear in the text.
    """
    ident = quote_identifier(predicate.attribute)
    if isinstance(predicate, AnyPredicate):
        return "TRUE"
    if isinstance(predicate, RangePredicate):
        low = None if math.isinf(predicate.low) else _number(predicate.low, params)
        high = None if math.isinf(predicate.high) else _number(predicate.high, params)
        if (
            low is not None
            and high is not None
            and predicate.closed_low
            and predicate.closed_high
        ):
            return f"{ident} BETWEEN {low} AND {high}"
        clauses = []
        if low is not None:
            clauses.append(f"{ident} {'>=' if predicate.closed_low else '>'} {low}")
        if high is not None:
            clauses.append(f"{ident} {'<=' if predicate.closed_high else '<'} {high}")
        return " AND ".join(clauses) or "TRUE"
    if isinstance(predicate, SetPredicate):
        values = ", ".join(quote_literal(v) for v in sorted(predicate.values))
        return f"{ident} IN ({values})"
    if isinstance(predicate, ContainsPredicate):
        # Text tests are SQL functions registered by the connection over
        # the predicates' own label tests, so pushdown counts agree with
        # in-memory evaluation bit for bit.  SQLite runs ``x MATCH y`` as
        # ``match(y, x)``; CONTAINS has no operator, so it is a call.
        return f"contains({ident}, {quote_literal(predicate.needle)})"
    if isinstance(predicate, MatchPredicate):
        return f"{ident} MATCH {quote_literal(' '.join(predicate.terms))}"
    raise QueryError(f"cannot render predicate type {type(predicate).__name__}")


def where_to_sql(
    query: ConjunctiveQuery | None, params: list[float] | None = None
) -> str:
    """`` WHERE ...`` over the restrictive predicates, or ``""``."""
    if query is None:
        return ""
    where = " AND ".join(
        predicate_to_sql(p, params) for p in query.predicates if p.is_restrictive
    )
    return f" WHERE {where}" if where else ""


def query_to_sql(
    query: ConjunctiveQuery, table_name: str, params: list[float] | None = None
) -> str:
    """Render ``SELECT * FROM table WHERE ...`` for a conjunctive query."""
    return f"SELECT * FROM {quote_identifier(table_name)}" + where_to_sql(
        query, params
    )


def count_to_sql(
    query: ConjunctiveQuery, table_name: str, params: list[float] | None = None
) -> str:
    """Render the COUNT(*) query the engine uses to measure covers."""
    return f"SELECT COUNT(*) FROM {quote_identifier(table_name)}" + where_to_sql(
        query, params
    )
