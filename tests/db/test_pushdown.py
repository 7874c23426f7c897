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
    sql_joint_distribution,
    sql_numeric_range,
    sql_region_counts,
)
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
