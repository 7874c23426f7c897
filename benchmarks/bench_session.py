"""E15 — interaction-loop latency (Sections 1–2 + §5.1 anticipation).

The paper's core UX requirement: "the query latency should be close to
zero even with large sets."  The unit that matters to a user is not one
pipeline run but one *interaction* — a drill-down click.  We measure the
drill latency cold (pipeline on demand), with the §5.1 sampling lever,
and with §5.1 anticipative prefetching (the click is a cache hit).

Expected shape: cold < 1 s at 100k rows, sampling cuts it by ~10×, and
anticipation makes the click effectively free (µs), moving all cost into
idle time.
"""

import time

import pytest

from repro.core.anticipate import AnticipativeExplorer
from repro.core.config import AtlasConfig
from repro.core.session import ExplorationSession
from repro.datagen import census_table
from repro.engine import Explorer
from repro.evaluation.harness import ResultTable
from repro.evaluation.workloads import figure2_query

N_ROWS = 100_000


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=0)


def _drill_latency(session: ExplorationSession) -> float:
    session.start(figure2_query())
    started = time.perf_counter()
    session.drill(0)
    return time.perf_counter() - started


def test_interaction_latency(table, save_report, benchmark):
    report = ResultTable(
        ["mode", "drill latency_s", "idle-time cost_s"],
        title=f"E15: drill-down interaction latency (n={N_ROWS})",
    )

    cold = _drill_latency(ExplorationSession(Explorer(table)))
    report.add_row(["cold (full pipeline per click)", cold, 0.0])

    sampled = _drill_latency(
        ExplorationSession(Explorer(table, AtlasConfig(sample_size=10_000)))
    )
    report.add_row(["sampled (§5.1 lever, 10k rows)", sampled, 0.0])

    explorer = AnticipativeExplorer(Explorer(table))
    answer = explorer.explore(figure2_query())
    idle_start = time.perf_counter()
    explorer.prefetch(answer)
    idle_cost = time.perf_counter() - idle_start
    started = time.perf_counter()
    explorer.explore(answer.best.regions[0])
    anticipated = time.perf_counter() - started
    report.add_row(
        ["anticipated (§5.1 prefetch)", anticipated, idle_cost]
    )
    save_report("session_latency", report.render())

    # the quasi-real-time bar, per interaction
    assert cold < 1.0
    assert sampled < cold
    # a prefetched click must be orders of magnitude cheaper than cold
    assert anticipated < cold / 100

    session = ExplorationSession(Explorer(table, AtlasConfig(sample_size=10_000)))
    session.start(figure2_query())

    def one_click():
        session.drill(0)
        session.back()

    benchmark.pedantic(one_click, rounds=5, iterations=1)
