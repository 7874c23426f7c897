"""FIG2 — Figure 2: two maps of the same survey data (claim C10).

Reproduces the paper's introductory example end to end: the Section-1
user query over the survey generator must yield an {Age, Sex} map and an
{Education, Salary} map as *separate* results, with Eye color grouped
with neither.  The report prints the generated maps; the benchmark times
the full pipeline on 20k rows.
"""

import pytest

from repro.engine import explorer
from repro.datagen import census_table
from repro.evaluation.harness import ResultTable
from repro.evaluation.workloads import figure2_query
from repro.frontend.render import render_map

N_ROWS = 20_000


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=0)


@pytest.fixture(scope="module")
def result(table):
    return explorer(table).explore(figure2_query())


def test_fig2_report(result, table, save_report, benchmark):
    report = ResultTable(
        ["rank", "map attributes", "regions", "entropy"],
        title=f"FIG2: maps for the Section-1 survey query (n={N_ROWS})",
    )
    for rank, entry in enumerate(result.ranked, start=1):
        report.add_row(
            [rank, " + ".join(sorted(entry.map.attributes)),
             entry.map.n_regions, entry.score]
        )
    rendered = [report.render(), ""]
    for entry in result.ranked:
        rendered.append(render_map(entry.map, table))
        rendered.append("")
    save_report("fig2_census", "\n".join(rendered))

    # The Figure-2 structure (C10).
    attribute_sets = [set(m.attributes) for m in result.maps]
    assert {"Age", "Sex"} in attribute_sets
    assert {"Salary", "Education"} in attribute_sets
    for attrs in attribute_sets:
        if "Eye color" in attrs:
            assert attrs == {"Eye color"}

    engine = explorer(table)
    benchmark(lambda: engine.explore(figure2_query()))
