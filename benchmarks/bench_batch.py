"""E16 — batch exploration with a shared execution context.

The engine refactor's headline performance claim: serving many queries
on one table through a single :class:`~repro.engine.ExecutionContext`
(``explore_many``) beats per-query explores over fresh contexts, because
predicate masks, assignment vectors, joint contingency tables, and cut
points are memoized once instead of recomputed per query.

The workload models the paper's interactive setting (Figure 1): a
whole-table survey query, drill-downs into the regions of its top maps,
and a couple of repeated queries (interactive traffic revisits maps —
the §5.1 anticipation argument).  Results are asserted identical
map-for-map before any timing is reported.
"""

from __future__ import annotations

import time

from repro.datagen import census_table
from repro.engine import explorer
from repro.evaluation.harness import ResultTable
from repro.evaluation.workloads import figure2_query

N_ROWS = 30_000
MIN_QUERIES = 8


def _session_workload(table) -> list:
    """A realistic interactive workload: survey + drill-downs + repeats."""
    survey = figure2_query()
    answer = explorer(table).explore(survey)
    queries = [None, survey]
    for entry in answer.ranked[:3]:
        queries.extend(entry.map.regions[:2])
    # Interactive users revisit earlier views.
    queries.append(survey)
    queries.append(None)
    assert len(queries) >= MIN_QUERIES
    return queries


def _best_of(runs: int, fn) -> tuple[float, object]:
    """Min wall time over ``runs`` executions (shields CI noise)."""
    best, result = float("inf"), None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_batch_vs_sequential(save_report):
    table = census_table(n_rows=N_ROWS, seed=0)
    queries = _session_workload(table)

    # Each run is cold (fresh Explorer contexts); best-of-3
    # per variant only evens out scheduler noise on shared CI runners.
    t_sequential, sequential = _best_of(
        3, lambda: [explorer(table).explore(q) for q in queries]
    )
    t_batch, batch = _best_of(
        3, lambda: explorer(table).explore_many(queries)
    )

    # Identical answers, map for map, before any speed claim.
    for seq_result, batch_result in zip(sequential, batch):
        assert seq_result.maps == batch_result.maps

    speedup = t_sequential / t_batch if t_batch > 0 else float("inf")
    report = ResultTable(
        ["variant", "queries", "seconds", "speedup"],
        title=f"E16: explore_many vs per-query explore ({N_ROWS} census rows)",
    )
    report.add_row(["sequential explore", len(queries), t_sequential, 1.0])
    report.add_row(["explore_many (shared ctx)", len(queries), t_batch, speedup])
    save_report("batch_vs_sequential", report.render())

    assert len(queries) >= MIN_QUERIES
    assert t_batch < t_sequential, (
        f"shared-context batch ({t_batch:.3f}s) not faster than "
        f"sequential ({t_sequential:.3f}s)"
    )


def test_batch_scaling_with_repetition(save_report):
    """Speedup grows with traffic repetition (the anticipation effect)."""
    table = census_table(n_rows=10_000, seed=1)
    base = _session_workload(table)
    report = ResultTable(
        ["repeat_factor", "queries", "sequential_s", "batch_s", "speedup"],
        title="E16b: shared-context speedup vs workload repetition",
    )
    for factor in (1, 2, 4):
        workload = base * factor
        started = time.perf_counter()
        for query in workload:
            explorer(table).explore(query)
        t_sequential = time.perf_counter() - started

        started = time.perf_counter()
        explorer(table).explore_many(workload)
        t_batch = time.perf_counter() - started
        report.add_row(
            [
                factor,
                len(workload),
                t_sequential,
                t_batch,
                t_sequential / t_batch if t_batch else float("inf"),
            ]
        )
    save_report("batch_scaling", report.render())
