"""Integration tests reproducing the paper's worked figures end to end."""

import numpy as np
import pytest

from repro.engine import explorer
from repro.core.candidates import generate_candidates
from repro.core.clustering import cluster_maps
from repro.core.config import AtlasConfig, NumericCutStrategy
from repro.core.cut import cut
from repro.core.merge import composition, product
from repro.datagen import census_table, figure5_dataset
from repro.dataset.table import Table
from repro.evaluation.metrics import adjusted_rand_index
from repro.evaluation.workloads import figure2_query, figure3_query


class TestFigure2:
    """Two maps of the same data: {Age, Sex} and {Education, Salary}."""

    @pytest.fixture(scope="class")
    def result(self):
        table = census_table(n_rows=20_000, seed=0)
        return explorer(table).explore(figure2_query())

    def test_both_paper_maps_generated(self, result):
        attribute_sets = [set(m.attributes) for m in result.maps]
        assert {"Age", "Sex"} in attribute_sets
        assert {"Salary", "Education"} in attribute_sets

    def test_eye_color_not_grouped_with_education(self, result):
        for m in result.maps:
            if "Eye color" in m.attributes:
                assert set(m.attributes) == {"Eye color"}

    def test_education_salary_regions_match_figure(self, result):
        for m in result.maps:
            if set(m.attributes) == {"Salary", "Education"}:
                combos = {
                    (
                        tuple(sorted(r.predicate_on("Education").values)),
                        tuple(sorted(r.predicate_on("Salary").values)),
                    )
                    for r in m.regions
                }
                # the four combinations of Figure 2's right map
                assert combos == {
                    (("BSc",), ("<50k",)),
                    (("BSc",), (">50k",)),
                    (("MSc",), ("<50k",)),
                    (("MSc",), (">50k",)),
                }
                return
        pytest.fail("no Education/Salary map found")


class TestFigure3:
    """CUT on Age (around a value) and on Sex (M vs F)."""

    @pytest.fixture(scope="class")
    def table(self):
        rng = np.random.default_rng(0)
        age = rng.uniform(20, 90, 10_000)
        sex = rng.choice(["M", "F"], 10_000)
        return Table.from_dict(
            {"Age": age.tolist(), "Sex": sex.tolist()}, name="fig3"
        )

    def test_cut_on_age(self, table):
        query = figure3_query()
        result = cut(table, query, "Age")
        assert result.n_regions == 2
        left, right = result.regions
        boundary = left.predicate_on("Age").high
        assert 50 < boundary < 60  # median of U(20, 90) is 55
        # both halves keep the Sex predicate intact
        assert left.predicate_on("Sex").values == frozenset({"M", "F"})
        assert right.predicate_on("Age").low == boundary

    def test_cut_on_sex(self, table):
        query = figure3_query()
        result = cut(table, query, "Sex")
        assert result.n_regions == 2
        values = {
            tuple(sorted(r.predicate_on("Sex").values)) for r in result.regions
        }
        assert values == {("F",), ("M",)}
        for region in result.regions:
            assert region.predicate_on("Age").low == 20
            assert region.predicate_on("Age").high == 90


class TestFigure4:
    """Agglomerative map clustering: 2 clusters via 3 merges."""

    def test_three_merges_two_clusters(self):
        rng = np.random.default_rng(1)
        n = 10_000
        age = rng.uniform(20, 70, n)
        income = age * 1_000 + rng.normal(0, 2_000, n)
        edu = np.where(
            age + rng.normal(0, 5, n) > 45, "graduate", "undergrad"
        )
        size = rng.normal(160, 15, n)
        weight = size * 0.5 - 20 + rng.normal(0, 2, n)
        table = Table.from_dict(
            {
                "age": age.tolist(),
                "income": income.tolist(),
                "edu": edu.tolist(),
                "size": size.tolist(),
                "weight": weight.tolist(),
            },
            name="fig4",
        )
        from repro.query.query import ConjunctiveQuery

        candidates = generate_candidates(table, ConjunctiveQuery())
        clustering = cluster_maps(candidates, table)
        groups = [
            frozenset(m.attributes[0] for m in cluster)
            for cluster in clustering.clusters
        ]
        assert frozenset({"age", "income", "edu"}) in groups
        assert frozenset({"size", "weight"}) in groups
        # Figure 4: "In total, three merge operations are performed."
        assert clustering.n_merges == 3


class TestFigure5:
    """Product vs composition of a size map and a weight map."""

    @pytest.fixture(scope="class")
    def data(self):
        return figure5_dataset(n_rows=12_000, seed=0)

    def test_product_is_global_grid(self, data):
        from repro.query.query import ConjunctiveQuery

        table = data.table
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        m1 = cut(table, ConjunctiveQuery(), "size", config)
        m2 = cut(table, ConjunctiveQuery(), "weight", config)
        merged = product([m1, m2], table)
        assert merged.n_regions == 4
        # all regions share the same global weight boundary
        weight_bounds = {
            r.predicate_on("weight").high for r in merged.regions
        }
        finite = {b for b in weight_bounds if b != float("inf")}
        assert len(finite) == 1

    def test_composition_adapts_weight_cut_per_size_region(self, data):
        from repro.query.query import ConjunctiveQuery

        table = data.table
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        m1 = cut(table, ConjunctiveQuery(), "size", config)
        m2 = cut(table, ConjunctiveQuery(), "weight", config)
        composed = composition([m1, m2], table, config)
        finite = {
            round(r.predicate_on("weight").high, 1)
            for r in composed.regions
            if r.predicate_on("weight").high != float("inf")
        }
        # Figure 5: weight cut near 45 for small sizes, near 65 for large.
        assert len(finite) == 2
        low_cut, high_cut = sorted(finite)
        assert 40 < low_cut < 50
        assert 60 < high_cut < 70

    def test_composition_recovers_planted_clusters_product_does_not(self, data):
        """Claim C9: composition reveals clusters the product misses."""
        from repro.query.query import ConjunctiveQuery

        table = data.table
        labels = data.labels_for(["size", "weight"])
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        m1 = cut(table, ConjunctiveQuery(), "size", config)
        m2 = cut(table, ConjunctiveQuery(), "weight", config)
        composed = composition([m1, m2], table, config)
        ari_composed = adjusted_rand_index(composed.assign(table), labels)
        assert ari_composed > 0.95

        global_config = AtlasConfig(
            numeric_strategy=NumericCutStrategy.MEDIAN
        )
        g1 = cut(table, ConjunctiveQuery(), "size", global_config)
        g2 = cut(table, ConjunctiveQuery(), "weight", global_config)
        grid = product([g1, g2], table)
        ari_grid = adjusted_rand_index(grid.assign(table), labels)
        assert ari_composed > ari_grid
