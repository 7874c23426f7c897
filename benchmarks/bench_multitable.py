"""E9 — the multi-table path (Section 5.2, "real life databases").

Measures the paper's two multi-table mitigations on a TPC-like catalog:
naive full star materialization vs the "work on subsets only" sampled
join, and verifies the cardinality guard keeps key columns out of the
maps (a failure "could lead to very long and useless computations").
"""

import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.datagen import tpc_catalog
from repro.dataset.stats import profile_table
from repro.evaluation.harness import ResultTable, Timer

SCALE = 0.3  # ~4.5k customers / 45k orders


@pytest.fixture(scope="module")
def catalog():
    return tpc_catalog(scale=SCALE, seed=0, include_lineitems=True)


def test_multitable_exploration(catalog, save_report, benchmark):
    report = ResultTable(
        ["step", "rows", "time_s"],
        title=f"E9: multi-table exploration (TPC-like, scale={SCALE})",
    )

    with Timer() as full_timer:
        wide_full = catalog.star_around("orders")
    report.add_row(["full star join", wide_full.n_rows, full_timer.elapsed])

    with Timer() as sample_timer:
        wide_sample = catalog.star_around("orders", sample=5_000, rng=0)
    report.add_row(
        ["sampled star join (5k)", wide_sample.n_rows, sample_timer.elapsed]
    )

    with Timer() as explore_timer:
        result = explorer(wide_full, AtlasConfig()).explore()
    report.add_row(["explore full star", wide_full.n_rows, explore_timer.elapsed])

    with Timer() as explore_sample_timer:
        sampled_result = explorer(wide_sample, AtlasConfig()).explore()
    report.add_row(
        ["explore sampled star", wide_sample.n_rows,
         explore_sample_timer.elapsed]
    )

    # The two-hop snowflake (lineitems -> orders -> customers).
    with Timer() as snowflake_timer:
        snowflake = catalog.snowflake_around("lineitems", sample=5_000, rng=0)
    report.add_row(
        ["sampled snowflake join (2 hops)", snowflake.n_rows,
         snowflake_timer.elapsed]
    )
    with Timer() as explore_snowflake_timer:
        snowflake_result = explorer(snowflake, AtlasConfig()).explore()
    report.add_row(
        ["explore sampled snowflake", snowflake.n_rows,
         explore_snowflake_timer.elapsed]
    )
    save_report("multitable", report.render())

    # customer attributes crossed two FK hops into the maps' scope
    assert "customers.segment" in snowflake
    assert len(snowflake_result) >= 1

    # the cardinality guard (§5.2): keys never enter the maps
    profile = profile_table(wide_full)
    assert "orderkey" in profile.excluded
    for the_map in result.maps:
        assert "orderkey" not in the_map.attributes
        assert "custkey" not in the_map.attributes

    # sampled exploration must agree with the full one on the top map
    assert set(sampled_result.best.attributes) == set(result.best.attributes)
    # and the sampled join is cheaper
    assert sample_timer.elapsed < full_timer.elapsed

    benchmark.pedantic(
        lambda: catalog.star_around("orders", sample=5_000, rng=0),
        rounds=3,
        iterations=1,
    )
