"""Unit tests for the SQL pushdown primitives."""

import numpy as np
import pytest

from repro.core.contingency import joint_distribution
from repro.core.cut import cut
from repro.datagen import census_table
from repro.db.connection import SqlConnection
from repro.db.pushdown import (
    sql_category_histogram,
    sql_count,
    sql_cover,
    sql_frequency_summary,
    sql_joint_distribution,
    sql_median,
    sql_numeric_range,
    sql_quantile_summary,
    sql_region_counts,
)
from repro.engine.kernels import frequency_summary_from_codes, quantile_summary
from repro.errors import QueryError
from repro.query.parser import parse_query
from repro.query.query import ConjunctiveQuery


@pytest.fixture(scope="module")
def setup():
    table = census_table(n_rows=5000, seed=3)
    connection = SqlConnection({table.name: table})
    return table, connection


class TestCounts:
    def test_count_matches_native(self, setup):
        table, connection = setup
        query = parse_query("Age: [30, 50]")
        assert sql_count(connection, query, table.name) == query.count(table)

    def test_cover_matches_native(self, setup):
        table, connection = setup
        query = parse_query("Sex: {'Female'}")
        assert sql_cover(connection, query, table.name) == pytest.approx(
            query.cover(table)
        )


class TestNumericPushdown:
    def test_range(self, setup):
        table, connection = setup
        low, high = sql_numeric_range(connection, "Age", table.name)
        assert low == table.numeric("Age").min()
        assert high == table.numeric("Age").max()

    def test_range_within_region(self, setup):
        table, connection = setup
        region = parse_query("Age: [40, 60]")
        low, high = sql_numeric_range(connection, "Age", table.name, region)
        assert low >= 40
        assert high <= 60

    def test_median_close_to_exact(self, setup):
        table, connection = setup
        approx = sql_median(connection, "Age", table.name)
        exact = table.numeric("Age").median()
        # binary search converges to within a rank gap of the median
        assert abs(approx - exact) <= 1.0

    def test_median_counts_statements_not_tuples(self, setup):
        table, connection = setup
        before = len(connection.statement_log)
        sql_median(connection, "Age", table.name)
        statements = connection.statement_log[before:]
        assert all(s.startswith(("SELECT COUNT(*)", "SELECT MIN")) for s in statements)

    def test_median_of_empty_region_rejected(self, setup):
        table, connection = setup
        region = parse_query("Age: [500, 600]")
        with pytest.raises(QueryError):
            sql_median(connection, "Age", table.name, region)


class TestCategoricalPushdown:
    def test_histogram_matches_native(self, setup):
        table, connection = setup
        histogram = sql_category_histogram(connection, "Sex", table.name)
        assert histogram == table.categorical("Sex").value_counts()

    def test_histogram_within_region(self, setup):
        table, connection = setup
        region = parse_query("Age: [17, 30]")
        histogram = sql_category_histogram(
            connection, "Sex", table.name, region
        )
        assert sum(histogram.values()) == region.count(table)


class TestJointPushdown:
    def test_matches_native_contingency(self, setup):
        table, connection = setup
        map_age = cut(table, ConjunctiveQuery(), "Age")
        map_sex = cut(table, ConjunctiveQuery(), "Sex")
        via_sql = sql_joint_distribution(
            connection, map_age, map_sex, table.name
        )
        native = joint_distribution(map_age, map_sex, table)
        assert np.allclose(via_sql, native, atol=1e-12)

    def test_region_counts(self, setup):
        table, connection = setup
        map_sex = cut(table, ConjunctiveQuery(), "Sex")
        counts = sql_region_counts(connection, map_sex, table.name)
        assert counts.sum() == table.n_rows


class TestSketchPushdown:
    """Window-function sketch builds match the columnar kernels bit-for-bit."""

    def test_quantile_summary_bit_identical_to_kernel(self, setup):
        table, connection = setup
        local = quantile_summary(table.numeric("Age").data, 0.005)
        remote = sql_quantile_summary(
            connection, "Age", table.name, epsilon=0.005
        )
        assert remote.to_dict() == local.to_dict()

    def test_quantile_summary_within_region(self, setup):
        table, connection = setup
        region = parse_query("Age: [30, 50]")
        mask = region.mask(table)
        local = quantile_summary(table.numeric("Age").data[mask], 0.01)
        remote = sql_quantile_summary(
            connection, "Age", table.name, region=region, epsilon=0.01
        )
        assert remote.to_dict() == local.to_dict()

    def test_quantile_summary_empty_region(self, setup):
        table, connection = setup
        region = parse_query("Age: [1000, 2000]")
        remote = sql_quantile_summary(
            connection, "Age", table.name, region=region
        )
        assert remote.count == 0

    def test_quantile_ships_few_rows(self, setup):
        table, connection = setup
        remote = sql_quantile_summary(
            connection, "Age", table.name, epsilon=0.005
        )
        # ~1/(2ε) + 1 tuples, never the 5000 rows.
        assert remote.space <= 1 / (2 * 0.005) + 2

    def test_frequency_summary_bit_identical_to_kernel(self, setup):
        table, connection = setup
        column = table.categorical("Education")
        local = frequency_summary_from_codes(
            column.codes, list(column.categories), 256
        )
        remote = sql_frequency_summary(
            connection, "Education", table.name, capacity=256
        )
        assert remote.to_dict() == local.to_dict()

    def test_frequency_summary_reduction_offset(self, setup):
        # A capacity below the label count forces the (k+1)-th-largest
        # subtraction on both sides; they must still agree exactly.
        table, connection = setup
        column = table.categorical("Eye color")
        capacity = max(1, len(column.categories) - 2)
        local = frequency_summary_from_codes(
            column.codes, list(column.categories), capacity
        )
        remote = sql_frequency_summary(
            connection, "Eye color", table.name, capacity=capacity
        )
        assert remote.to_dict() == local.to_dict()

    def test_frequency_summary_within_region(self, setup):
        table, connection = setup
        region = parse_query("Sex: {'Female'}")
        mask = region.mask(table)
        column = table.categorical("Education")
        local = frequency_summary_from_codes(
            column.codes[mask], list(column.categories), 256
        )
        remote = sql_frequency_summary(
            connection, "Education", table.name, region=region, capacity=256
        )
        assert remote.to_dict() == local.to_dict()

    def test_statement_budget(self, setup):
        # Two statements per summary: one COUNT, one window query.
        table, _ = setup
        fresh = SqlConnection({table.name: table})
        sql_quantile_summary(fresh, "Age", table.name)
        assert len(fresh.statement_log) == 2
        sql_frequency_summary(fresh, "Education", table.name)
        assert len(fresh.statement_log) == 4
