"""E2 — the convenience constraints (claims C1, C2).

Section 2: "a map with more than 8 regions is hard to read" and "the
queries should be simple, with very few predicates (we target less than
3)".  Over 50 random workloads on two datasets, every generated map must
respect ``max_regions`` and use at most ``max_predicates`` cut
attributes; the report shows the observed distributions.
"""

import numpy as np
import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.datagen import census_table, sky_survey_table
from repro.evaluation.harness import ResultTable
from repro.evaluation.workloads import random_query

N_WORKLOADS = 25  # per dataset


@pytest.fixture(scope="module")
def tables():
    return (
        census_table(n_rows=10_000, seed=0),
        sky_survey_table(n_rows=10_000, seed=0),
    )


def test_convenience_constraints(tables, save_report, benchmark):
    config = AtlasConfig()
    region_counts: list[int] = []
    attribute_counts: list[int] = []
    map_counts: list[int] = []
    for table in tables:
        for seed in range(N_WORKLOADS):
            query = random_query(table, seed)
            result = explorer(table, config).explore(query)
            map_counts.append(len(result))
            for entry in result.ranked:
                region_counts.append(entry.map.n_regions)
                attribute_counts.append(len(entry.map.attributes))
                assert entry.map.n_regions <= config.max_regions  # C1
                assert len(entry.map.attributes) <= config.max_predicates  # C2
            assert len(result) <= config.max_maps

    report = ResultTable(
        ["quantity", "min", "mean", "max", "paper cap"],
        title=f"E2: convenience constraints over {2 * N_WORKLOADS} random workloads",
    )
    report.add_row(
        ["regions / map", min(region_counts),
         float(np.mean(region_counts)), max(region_counts),
         config.max_regions]
    )
    report.add_row(
        ["cut attributes / map", min(attribute_counts),
         float(np.mean(attribute_counts)), max(attribute_counts),
         config.max_predicates]
    )
    report.add_row(
        ["maps / answer", min(map_counts),
         float(np.mean(map_counts)), max(map_counts), config.max_maps]
    )
    save_report("convenience", report.render())

    table = tables[0]
    query = random_query(table, 0)
    engine = explorer(table, config)
    benchmark(lambda: engine.explore(query))
