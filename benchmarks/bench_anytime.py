"""E4 — anytime convergence (claim C8, Section 5.1).

"The quality of the results would improve as computation time
increases."  We run the anytime engine on 200k rows and record, per
tick: elapsed time, sample size, agreement of the tick's top map with
the full-data top map (purity of one against the other), and the
self-reported stability.  Expected shape: agreement reaches 1.0 well
before the sample covers the table, and early ticks cost milliseconds.
"""

import pytest

from repro.engine import Explorer
from repro.core.distance import map_nvi
from repro.datagen import census_table
from repro.evaluation.harness import ResultTable
from repro.evaluation.workloads import figure2_query

N_ROWS = 200_000


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=0)


def test_anytime_convergence(table, save_report, benchmark):
    query = figure2_query()
    reference = Explorer(table).explore(query).best

    report = ResultTable(
        ["tick", "sample", "elapsed_s", "top map", "nVI to full answer",
         "stability"],
        title=f"E4: anytime convergence (n={N_ROWS})",
    )
    distances = []
    explorer = Explorer(table).anytime(query, initial_size=1_000)
    for tick in explorer.ticks():
        distance = map_nvi(tick.map_set.best, reference, table)
        distances.append(distance)
        report.add_row(
            [
                tick.tick,
                tick.sample_size,
                tick.elapsed,
                tick.map_set.best.label,
                distance,
                tick.stability,
            ]
        )
    save_report("anytime_convergence", report.render())

    # quality improves as computation time increases (C8): the distance
    # to the full answer must end (near) zero and never end higher than
    # it started.
    assert distances[-1] < 0.05
    assert distances[-1] <= distances[0] + 1e-9

    # a single early tick is interactive
    def first_tick():
        return next(
            Explorer(table).anytime(query, initial_size=1_000).ticks()
        )

    benchmark.pedantic(first_tick, rounds=3, iterations=1)
