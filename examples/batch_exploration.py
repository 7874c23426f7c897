"""Batch exploration: many queries, one shared execution context.

Models a burst of interactive traffic against one table — a whole-table
survey, drill-downs into the regions of the best maps, and revisits —
and serves it twice: once query-by-query with independent engines, once
through ``explore_many`` over a shared context.  The answers are
identical; the shared context is faster because masks, assignment
vectors, contingency tables, and cut points are memoized once.

Run:  python examples/batch_exploration.py
"""

import time

from repro import explorer
from repro.datagen import census_table
from repro.evaluation.workloads import figure2_query

table = census_table(n_rows=30_000, seed=0)
survey = figure2_query()

# Build the workload: survey + the drill-downs a user would click.
first_answer = explorer(table).explore(survey)
queries = [None, survey]
for entry in first_answer.ranked[:3]:
    queries.extend(entry.map.regions[:2])
queries += [survey, None]  # interactive traffic revisits views
print(f"Workload: {len(queries)} queries over {table.n_rows} census rows")

started = time.perf_counter()
sequential = [explorer(table).explore(q) for q in queries]
t_sequential = time.perf_counter() - started

started = time.perf_counter()
batch = explorer(table).explore_many(queries)
t_batch = time.perf_counter() - started

assert all(a.maps == b.maps for a, b in zip(sequential, batch))
print(f"per-query explore        : {t_sequential * 1000:7.1f} ms")
print(f"explore_many (shared ctx): {t_batch * 1000:7.1f} ms")
print(f"speedup                  : {t_sequential / t_batch:7.2f}x")

# The context's cache counters show where the saving comes from.
shared = explorer(table)
shared.explore_many(queries)
counters = shared.context.counters
print(
    f"cache: {counters.hits} hits / {counters.misses} misses "
    f"({counters.hit_rate:.0%} hit rate)"
)
