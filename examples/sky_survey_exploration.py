"""Exploring an SDSS-like sky survey (Section 5.2's "real life database").

An astronomer who knows only the column semantics asks Atlas for a first
map of the catalog, then zooms into the high-redshift population.  The
example shows (a) whole-table mapping with no query, (b) how correlated
magnitude bands cluster into one map, and (c) a drill-down on redshift.

Run:  python examples/sky_survey_exploration.py
"""

from repro import AtlasConfig, explorer, parse_query
from repro.datagen import sky_survey_table
from repro.dataset.stats import profile_table
from repro.frontend import render_map_set

table = sky_survey_table(n_rows=30_000, seed=0)

# Step 0: what does the schema look like?  (the §5.2 profile)
profile = profile_table(table)
print("Column profile:")
for summary in profile.summaries:
    extra = ""
    if summary.minimum is not None:
        extra = f"  range [{summary.minimum:.2f}, {summary.maximum:.2f}]"
    print(f"  {summary.name:10s} {summary.kind.value:12s} "
          f"distinct={summary.distinct:6d}{extra}")

# Step 1: a first feel for the data — no query at all.
engine = explorer(table, AtlasConfig(max_maps=6))
overview = engine.explore()
print("\n=== Overview maps (whole catalog) ===")
print(render_map_set(overview, table))

# Step 2: zoom into the high-redshift objects (quasar territory).
query = parse_query("""
redshift: [0.5, 7]
class: any
mag_r: any
mag_g: any
""")
zoom = engine.explore(query)
print("\n=== Maps of the z > 0.5 population ===")
print(render_map_set(zoom, table))
