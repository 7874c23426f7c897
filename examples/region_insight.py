"""Region insight: explanations, exemplars, and anticipation (Section 5).

The paper's "real life users" section sketches three usability features
beyond the core pipeline; all three are implemented and shown here:

* *explain why a region is interesting* — chart its attributes against
  the whole database;
* *describe regions with representative examples* — the most typical
  tuples of each region;
* *anticipative computations* — during idle time, precompute the map
  sets of the regions the user is most likely to drill into, so the
  next click is answered from cache.

Run:  python examples/region_insight.py
"""

import time

from repro import Explorer, parse_query
from repro.core.anticipate import AnticipativeExplorer
from repro.core.exemplars import representative_examples
from repro.core.explain import explain_region
from repro.datagen import sky_survey_table
from repro.frontend import render_examples, render_map

table = sky_survey_table(n_rows=30_000, seed=0)
query = parse_query("redshift: any\nmag_r: any\nclass: any")

result = Explorer(table).explore(query)
top = result.best
print(render_map(top, table))

# --- Explanations: why is each region interesting? ---------------------
print("\n=== Why are these regions interesting? ===")
for region in top.regions:
    skip = tuple(
        p.attribute for p in region.predicates if p.is_restrictive
    )
    explanation = explain_region(table, region, skip)
    print()
    print(explanation.describe(k=3))

# --- Exemplars: the most typical objects of region 0 -------------------
print("\n=== Representative objects of region 0 ===")
reps = representative_examples(table, top.regions[0], k=3)
print(render_examples(reps, title="most typical objects"))

# --- Anticipation: precompute the likely next queries ------------------
print("\n=== Anticipative computation ===")
explorer = AnticipativeExplorer(Explorer(table), top_maps_to_prefetch=1)
answer = explorer.explore(query)
started = time.perf_counter()
computed = explorer.prefetch(answer)
idle_cost = time.perf_counter() - started
print(f"idle time spent prefetching {computed} drill-downs: "
      f"{idle_cost * 1000:.1f} ms")

started = time.perf_counter()
explorer.explore(answer.best.regions[0])  # the user clicks region 0
click_latency = time.perf_counter() - started
print(f"drill-down answered from cache in {click_latency * 1000:.3f} ms "
      f"(hit rate {explorer.stats.hit_rate * 100:.0f}%)")
