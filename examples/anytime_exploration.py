"""Anytime exploration of a large table (paper Section 5.1).

Atlas must feel instant even on data too large to scan interactively.
The anytime engine runs the pipeline on a growing nested sample and
publishes a result snapshot per tick; this example prints the snapshot
trail — sample size, elapsed time, the top map, and the stability score
— and shows the early answer matching the full-data answer.

Run:  python examples/anytime_exploration.py
"""

from repro import Explorer
from repro.datagen import census_table
from repro.evaluation import figure2_query
from repro.evaluation.harness import ResultTable

N_ROWS = 300_000
table = census_table(n_rows=N_ROWS, seed=0)
query = figure2_query()

print(f"Exploring {N_ROWS} rows anytime-style "
      "(tick = pipeline re-run on a doubled sample)\n")

explorer = Explorer(table).anytime(
    query, initial_size=1_000, growth_factor=2.0
)
report = ResultTable(
    ["tick", "sample", "elapsed_s", "top map", "stability"],
    title="anytime trail",
)
final = None
for tick in explorer.ticks():
    final = tick
    report.add_row(
        [
            tick.tick,
            tick.sample_size,
            tick.elapsed,
            tick.map_set.best.label,
            tick.stability,
        ]
    )
report.print()

# Compare against the one-shot full-table run.
full = Explorer(table).explore(query)
print(f"\nFull-table top map: {full.best.label} "
      f"(pipeline {full.timings.total:.2f}s)")
print(f"Anytime final top map: {final.map_set.best.label} "
      f"(total {final.elapsed:.2f}s across all ticks)")
assert set(full.best.attributes) == set(final.map_set.best.attributes)
print("Early and full answers agree on the top map's attributes.")
