"""E14 — the generic-SQL pushdown cost (Section 4).

"Ideally, the system should be completely generic, and therefore support
standard APIs such as ODBC or JDBC.  However this limits the scope of
the operations that can be pushed to the database, as only SQL may be
used."

We run the same exploration natively (typed columns in memory) and
through the SQL-only engine (COUNT(*) binary-search medians, GROUP BY
histograms, per-cell contingency counts) and report wall time and the
number of statements that crossed the wire.  Expected shape: identical
answers, with the generic path paying a large statement count — the
exact cost the paper warns about.
"""

import pytest

from repro.engine import explorer
from repro.datagen import census_table
from repro.db.connection import SqlConnection
from repro.db.sql_atlas import SqlAtlas
from repro.evaluation.harness import ResultTable, Timer
from repro.evaluation.workloads import figure2_query

N_ROWS = 10_000


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=0)


def test_sql_pushdown_cost(table, save_report, benchmark):
    query = figure2_query()

    with Timer() as native_timer:
        native = explorer(table).explore(query)

    connection = SqlConnection({table.name: table})
    engine = SqlAtlas(connection, table.name)
    statements_before = engine.statement_count
    with Timer() as sql_timer:
        via_sql = engine.explore(query)
    statements = engine.statement_count - statements_before

    report = ResultTable(
        ["path", "time_s", "statements", "top map"],
        title=f"E14: native vs SQL-only pushdown (n={N_ROWS})",
    )
    report.add_row(
        ["native (MAPI analogue)", native_timer.elapsed, 0, native.best.label]
    )
    report.add_row(
        ["generic SQL (ODBC/JDBC analogue)", sql_timer.elapsed,
         statements, via_sql.best.label]
    )
    save_report("sql_pushdown", report.render())

    # identical structure...
    assert [set(m.attributes) for m in via_sql.maps] == [
        set(m.attributes) for m in native.maps
    ]
    # ...at a real genericity cost: many statements, slower wall clock.
    assert statements > 50
    assert sql_timer.elapsed > native_timer.elapsed

    fresh = SqlAtlas(
        SqlConnection({table.name: table}), table.name
    )
    benchmark.pedantic(
        lambda: fresh.explore(query), rounds=3, iterations=1
    )
