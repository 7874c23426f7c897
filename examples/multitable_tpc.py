"""Exploring a multi-table database (paper Section 5.2, "real life databases").

Real databases are "multiple tables with foreign key relationships".
This example builds a TPC-like order-management catalog, materializes the
star join around the fact table (the paper's "naive way", plus its
"work on subsets only" sampled variant), and maps the result — showing
that key columns are auto-excluded and that dimension attributes joined
in from the customers table participate in the maps.

Run:  python examples/multitable_tpc.py
"""

from repro import AtlasConfig, explorer
from repro.datagen import tpc_catalog
from repro.dataset.stats import profile_table
from repro.evaluation.harness import Timer
from repro.frontend import render_map_set

catalog = tpc_catalog(scale=0.2, seed=0)
orders = catalog.table("orders")
customers = catalog.table("customers")
print(f"Catalog {catalog.name!r}: orders={orders.n_rows} rows, "
      f"customers={customers.n_rows} rows")
for fk in catalog.foreign_keys:
    print(f"  foreign key: {fk}")

# Naive full materialization vs the sampled subset.
with Timer() as full_timer:
    wide_full = catalog.star_around("orders")
with Timer() as sample_timer:
    wide_sample = catalog.star_around("orders", sample=5_000, rng=0)
print(f"\nStar join: full {wide_full.n_rows} rows in "
      f"{full_timer.elapsed * 1000:.0f} ms; "
      f"sampled {wide_sample.n_rows} rows in "
      f"{sample_timer.elapsed * 1000:.0f} ms")

# The §5.2 cardinality guard: keys are detected and excluded.
profile = profile_table(wide_full)
print("\nExcluded from mapping (cardinality guard):")
for name, reason in profile.excluded.items():
    print(f"  {name}: {reason}")

# Map the sampled star.
result = explorer(wide_sample, AtlasConfig(max_maps=5)).explore()
print("\n=== Maps over the materialized star ===")
print(render_map_set(result, wide_sample))
