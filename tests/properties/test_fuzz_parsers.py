"""Fuzz tests: the text surfaces never hang, never fail with foreign errors.

Failure-injection discipline for the two text surfaces (the paper's
query syntax and SQL through :class:`SqlConnection`): arbitrary input
must either succeed or raise the dedicated typed error — never an
IndexError, never a bare ``sqlite3.Error``, never an infinite loop —
and SQL text can never change the registered data.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.table import Table
from repro.db.connection import SqlConnection, SqlExecutionError
from repro.errors import ParseError, PredicateError, QueryError
from repro.query.parser import parse_query
from repro.query.query import ConjunctiveQuery

arbitrary_text = st.text(max_size=200)

#: Text biased toward almost-valid queries (more interesting paths).
query_like = st.lists(
    st.sampled_from(
        [
            "Age: [17, 90]", "Age: [90, 17]", "Age: (1,", "x: {'a', 'b'}",
            "x: {}", "x: any", "x:", ": any", "Age [17]", "# comment", "",
            "x: {'a' 'b'}", "x: [a, b]", "x: [1, 2] extra", "💥: [1, 2]",
        ]
    ),
    max_size=6,
).map("\n".join)

sql_like = st.lists(
    st.sampled_from(
        [
            "SELECT", "*", "FROM", "t", "WHERE", "x", ">", "1", "AND",
            "IN", "('a')", "BETWEEN", "2", "GROUP BY", "COUNT(*)",
            "LIMIT", "'unterminated", '"id"', ",", "(", ")", "OR",
        ]
    ),
    max_size=10,
).map(" ".join)


class TestQueryParserFuzz:
    @given(arbitrary_text)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        try:
            parse_query(text)
        except (ParseError, PredicateError):
            pass

    @given(query_like)
    @settings(max_examples=150, deadline=None)
    def test_query_like_text(self, text):
        try:
            parse_query(text)
        except (ParseError, PredicateError):
            pass


TABLE = Table.from_dict({"x": [1.0, 2.0, None], "id": ["a", "b", None]}, name="t")


def _rows(connection: SqlConnection) -> int:
    return connection.count(ConjunctiveQuery(), "t")


class TestSqlParserFuzz:
    """Every outcome of ``SqlConnection.query`` is a Table or a QueryError."""

    @staticmethod
    def _run(text: str) -> None:
        connection = SqlConnection({"t": TABLE})
        try:
            assert isinstance(connection.query(text), Table)
        except QueryError:
            pass
        assert _rows(connection) == TABLE.n_rows

    @given(arbitrary_text)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        self._run(text)

    @given(sql_like)
    @settings(max_examples=150, deadline=None)
    def test_sql_like_text(self, text):
        self._run(text)

    @pytest.mark.parametrize(
        "sql",
        [
            'DROP TABLE "t"',
            "INSERT INTO t VALUES (3.0, 'c')",
            "UPDATE t SET x = 0",
            "DELETE FROM t",
            "ATTACH ':memory:' AS other",
            "PRAGMA writable_schema = ON",
            "CREATE TABLE u (y REAL)",
            "SELECT * FROM t; DELETE FROM t",
        ],
    )
    def test_writes_are_refused_as_typed_errors(self, sql):
        connection = SqlConnection({"t": TABLE})
        with pytest.raises(SqlExecutionError):
            connection.query(sql)
        assert _rows(connection) == TABLE.n_rows
        assert connection.fetch("t").n_rows == TABLE.n_rows
