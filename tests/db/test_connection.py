"""Unit tests for the connection layer."""

import sys
import threading

import numpy as np
import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.db.connection import (
    NativeConnection,
    SqlConnection,
    SqlExecutionError,
)
from repro.db.pushdown import sql_category_histogram, sql_numeric_range
from repro.errors import QueryError
from repro.query.parser import parse_query
from repro.query.predicate import RangePredicate
from repro.query.query import ConjunctiveQuery


@pytest.fixture
def table() -> Table:
    return Table.from_dict(
        {"age": [20, 30, 40], "sex": ["M", "F", "M"]}, name="people"
    )


@pytest.fixture
def with_nulls() -> SqlConnection:
    return SqlConnection(
        {
            "people": Table.from_dict(
                {
                    "age": [20, 30, None, 50, 60],
                    "sex": ["M", "F", "F", None, "M"],
                    "score": [1.0, 2.0, 3.0, 4.0, 5.0],
                },
                name="people",
            )
        }
    )


class TestNativeConnection:
    def test_register_and_fetch(self, table):
        connection = NativeConnection()
        connection.register(table)
        assert connection.table_names() == ("people",)
        assert connection.fetch("people") is table

    def test_unknown_table(self):
        with pytest.raises(QueryError):
            NativeConnection().fetch("nope")


class TestSqlConnection:
    def test_fetch_goes_through_sql(self, table):
        connection = SqlConnection({"people": table})
        fetched = connection.fetch("people")
        assert fetched.n_rows == 3
        assert connection.statement_log == ('SELECT * FROM "people"',)

    def test_run_query(self, table):
        connection = SqlConnection({"people": table})
        query = parse_query("age: [25, 45]\nsex: any")
        result = connection.run_query(query, "people")
        assert result.n_rows == 2
        assert "BETWEEN 25 AND 45" in connection.statement_log[-1]

    def test_count(self, table):
        connection = SqlConnection({"people": table})
        query = parse_query("sex: {'M'}")
        assert connection.count(query, "people") == 2
        assert connection.statement_log[-1].startswith("SELECT COUNT(*)")

    def test_raw_query(self, table):
        connection = SqlConnection({"people": table})
        result = connection.query("SELECT COUNT(*) FROM people WHERE age > 25")
        assert result.numeric("COUNT(*)").data[0] == 2.0

    def test_fetch_keeps_kinds_and_missing_values(self):
        table = Table(
            [
                NumericColumn("x", [1.5, np.nan]),
                CategoricalColumn.from_values("label", [None, None]),
                CategoricalColumn.from_values("c", ["a", None]),
            ],
            name="t",
        )
        fetched = SqlConnection({"t": table}).fetch("t")
        assert fetched.kinds() == table.kinds()
        assert fetched.categorical("label").decode() == [None, None]
        assert np.array_equal(
            fetched.numeric("x").data, table.numeric("x").data, equal_nan=True
        )
        assert fetched.categorical("c").decode() == ["a", None]

    def test_unknown_table_is_typed(self, table):
        with pytest.raises(SqlExecutionError, match="no such table"):
            SqlConnection({"people": table}).fetch("nope")


class TestNullSemantics:
    """SQL's missing-value rules that SqlAtlas's counts rely on."""

    @pytest.mark.parametrize(
        "where, expected",
        [
            ("age > 0", 4),
            ("age <> 0", 4),
            ("age BETWEEN 0 AND 100", 4),
            ("age IN (20, 30, 50, 60)", 4),
            ("sex IN ('M', 'F')", 4),
            ("sex <> 'M'", 2),
            ("age IS NULL", 1),
            ("age IS NOT NULL", 4),
            ("sex IS NULL", 1),
        ],
    )
    def test_missing_values_match_only_is_null(self, with_nulls, where, expected):
        result = with_nulls.query(f"SELECT * FROM people WHERE {where}")
        assert result.n_rows == expected

    def test_group_by_reports_missing_labels_as_a_null_group(self, with_nulls):
        result = with_nulls.query(
            'SELECT "sex", COUNT(*) AS n FROM people GROUP BY "sex"'
        )
        groups = zip(result.categorical("sex").decode(), result.numeric("n").data)
        assert dict(groups) == {None: 1.0, "F": 2.0, "M": 2.0}
        assert sql_category_histogram(with_nulls, "sex", "people") == {
            "F": 2, "M": 2,
        }

    def test_histogram_of_a_region_holding_only_missing_labels(self, with_nulls):
        region = parse_query("age: [45, 55]")
        assert sql_category_histogram(with_nulls, "sex", "people", region) == {}

    def test_min_max_over_an_empty_region_are_nan(self, with_nulls):
        region = parse_query("age: [1000, 2000]")
        low, high = sql_numeric_range(with_nulls, "score", "people", region)
        assert np.isnan(low) and np.isnan(high)


class TestExactBounds:
    # SQLite 3.40 parses this repr() literal one ulp low, which would
    # move the row across the cut point; bound parameters are exact.
    VALUE = -45.6654079964588

    @pytest.mark.parametrize("closed_low", [True, False])
    @pytest.mark.parametrize("closed_high", [True, False])
    @pytest.mark.parametrize("side", ["low", "high"])
    def test_bound_on_a_stored_value(self, side, closed_low, closed_high):
        table = Table.from_dict(
            {"x": [self.VALUE - 1.0, self.VALUE, self.VALUE + 1.0]}, name="t"
        )
        low, high = (
            (self.VALUE, self.VALUE + 5.0)
            if side == "low"
            else (self.VALUE - 5.0, self.VALUE)
        )
        query = ConjunctiveQuery(
            [RangePredicate("x", low, high, closed_low, closed_high)]
        )
        connection = SqlConnection({"t": table})
        assert connection.count(query, "t") == query.count(table)
        assert connection.run_query(query, "t").n_rows == query.count(table)


class TestThreads:
    def test_concurrent_fetches_agree(self):
        from repro.datagen import census_table

        table = census_table(n_rows=500, seed=1)
        connection = SqlConnection({table.name: table})
        results: list[Table] = []
        lock = threading.Lock()

        def fetch():
            fetched = connection.fetch(table.name)
            with lock:
                results.append(fetched)

        threads = [threading.Thread(target=fetch) for __ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        for fetched in results:
            assert fetched.kinds() == table.kinds()
            for name in table.column_names:
                column = table.column(name)
                if hasattr(column, "data"):
                    assert np.array_equal(
                        fetched.numeric(name).data, column.data, equal_nan=True
                    )
                else:
                    assert fetched.categorical(name).decode() == column.decode()
