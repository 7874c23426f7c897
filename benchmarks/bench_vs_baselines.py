"""E5 — lazy Atlas vs exhaustive clustering (Section 6's positioning).

"We do not aim at finding all the clusters in the data... our
requirements concerning statistical accuracy are lower but we target
high speed."  On planted subspace data we compare:

* Atlas (composition + 2-means) — top-5 maps,
* CLIQUE — exhaustive bottom-up subspace clustering,
* the exhaustive tuple dendrogram (on a 3k-row cap; it is O(n²)),
* the naive equi-width grid.

Expected shape: Atlas runs orders of magnitude faster than the
dendrogram and much faster than CLIQUE, while its top maps recover the
planted structure (purity ≈ 1) and the naive grid does not.
"""

import numpy as np
import pytest

from repro.baselines.clique import clique
from repro.baselines.dendrogram import single_link_dendrogram
from repro.baselines.grid import grid_map
from repro.engine import explorer
from repro.core.config import AtlasConfig, MergeMethod, NumericCutStrategy
from repro.datagen import subspace_dataset
from repro.evaluation.harness import ResultTable, Timer
from repro.evaluation.metrics import best_map_purity, purity

N_ROWS = 20_000
DENDRO_CAP = 3_000


@pytest.fixture(scope="module")
def data():
    return subspace_dataset(n_rows=N_ROWS, seed=0)


def test_vs_baselines(data, save_report, benchmark):
    table = data.table
    labels = data.labels_for(["size", "weight"])
    config = AtlasConfig(
        numeric_strategy=NumericCutStrategy.TWO_MEANS,
        merge_method=MergeMethod.COMPOSITION,
    )

    report = ResultTable(
        ["method", "time_s", "output volume", "purity(size,weight)"],
        title=f"E5: Atlas vs exhaustive baselines (n={N_ROWS})",
    )

    with Timer() as atlas_timer:
        result = explorer(table, config).explore()
    atlas_purity = best_map_purity(result, table, labels, top_k=5)
    report.add_row(
        ["atlas (lazy, top-5)", atlas_timer.elapsed,
         f"{len(result)} maps", atlas_purity]
    )

    with Timer() as clique_timer:
        clique_result = clique(table, xi=10, tau=0.02, max_dimensions=2)
    sw_clusters = clique_result.clusters_in(["size", "weight"])
    clique_purity = 0.0
    if sw_clusters:
        assignment = np.full(table.n_rows, -1)
        for index, cluster in enumerate(sw_clusters):
            assignment[cluster.rows] = index
        clique_purity = purity(assignment, labels)
    report.add_row(
        ["clique (exhaustive)", clique_timer.elapsed,
         f"{len(clique_result.clusters)} clusters", clique_purity]
    )

    points = np.column_stack(
        [table.numeric("size").data, table.numeric("weight").data]
    )[:DENDRO_CAP]
    with Timer() as dendro_timer:
        dendro = single_link_dendrogram(points)
        dendro_labels = dendro.cut(2)
    dendro_purity = purity(dendro_labels, labels[:DENDRO_CAP])
    report.add_row(
        [f"dendrogram (first {DENDRO_CAP} rows)", dendro_timer.elapsed,
         "full hierarchy", dendro_purity]
    )

    with Timer() as grid_timer:
        grid = grid_map(table, ["size", "weight"])
    report.add_row(
        ["naive equi-width grid", grid_timer.elapsed,
         f"{grid.n_regions} regions", purity(grid.assign(table), labels)]
    )
    save_report("vs_baselines", report.render())

    # the lazy system must recover the planted subspace in its top maps
    assert atlas_purity > 0.95
    # and be dramatically faster than the exhaustive hierarchy
    assert atlas_timer.elapsed < dendro_timer.elapsed

    engine = explorer(table, config)
    benchmark.pedantic(engine.explore, rounds=3, iterations=1)


def test_clique_speed(data, benchmark):
    benchmark.pedantic(
        lambda: clique(data.table, xi=10, tau=0.02, max_dimensions=2),
        rounds=3,
        iterations=1,
    )
