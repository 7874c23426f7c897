"""Tests for the SQL-only Atlas engine (Section 4's generic path)."""

import json
from pathlib import Path

import pytest

from repro.engine import explorer
from repro.datagen import census_table
from repro.db.connection import SqlConnection
from repro.db.sql_atlas import SqlAtlas
from repro.evaluation.metrics import map_set_fingerprint
from repro.evaluation.workloads import figure2_query

#: Fingerprints and statement counts the hand-written SQL engine gave
#: before SQLite replaced it; the answers and the cost must not move.
GOLDEN = Path(__file__).parent / "data" / "sql_atlas_census.json"


@pytest.fixture(scope="module")
def setup():
    table = census_table(n_rows=5000, seed=0)
    connection = SqlConnection({table.name: table})
    return table, connection


class TestSqlAtlas:
    def test_figure2_structure_through_sql(self, setup):
        table, connection = setup
        engine = SqlAtlas(connection, table.name)
        result = engine.explore(figure2_query())
        attribute_sets = [set(m.attributes) for m in result.maps]
        assert {"Age", "Sex"} in attribute_sets
        assert {"Salary", "Education"} in attribute_sets

    def test_matches_native_engine(self, setup):
        table, connection = setup
        native = explorer(table).explore(figure2_query())
        via_sql = SqlAtlas(connection, table.name).explore(figure2_query())
        assert [set(m.attributes) for m in via_sql.maps] == [
            set(m.attributes) for m in native.maps
        ]
        # covers agree to counting precision
        for native_entry, sql_entry in zip(native.ranked, via_sql.ranked):
            assert native_entry.score == pytest.approx(
                sql_entry.score, abs=0.02
            )

    def test_only_sql_crossed_the_wire(self, setup):
        table, __ = setup
        connection = SqlConnection({table.name: table})
        engine = SqlAtlas(connection, table.name)
        engine.explore(figure2_query())
        assert engine.statement_count > 10
        assert all(
            statement.upper().startswith("SELECT")
            for statement in connection.statement_log
        )

    def test_whole_table_exploration(self, setup):
        table, connection = setup
        result = SqlAtlas(connection, table.name).explore()
        assert len(result) >= 1

    def test_empty_region_rejected(self, setup):
        from repro.errors import MapError
        from repro.query.parser import parse_query

        table, connection = setup
        engine = SqlAtlas(connection, table.name)
        with pytest.raises(MapError, match="no tuples"):
            engine.explore(parse_query("Age: [500, 600]"))

    def test_convenience_constraints_hold(self, setup):
        table, connection = setup
        engine = SqlAtlas(connection, table.name)
        result = engine.explore(figure2_query())
        for entry in result.ranked:
            assert entry.map.n_regions <= 8
            assert len(entry.map.attributes) <= 3

    def test_answers_and_statement_counts_match_the_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        table = census_table(n_rows=5000, seed=0)
        connection = SqlConnection({table.name: table})
        engine = SqlAtlas(connection, table.name)
        figure2 = engine.explore(figure2_query())
        after_figure2 = engine.statement_count
        whole = engine.explore()
        assert {
            "figure2": {
                "fingerprint": map_set_fingerprint(figure2),
                "statements": after_figure2,
            },
            "whole_table": {
                "fingerprint": map_set_fingerprint(whole),
                "statements": engine.statement_count - after_figure2,
            },
        } == golden
