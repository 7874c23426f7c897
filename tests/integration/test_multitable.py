"""Integration tests for the Section-5.2 multi-table path."""

from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.datagen import tpc_catalog
from repro.dataset.stats import profile_table


class TestTpcExploration:
    def test_star_then_explore(self):
        catalog = tpc_catalog(scale=0.02, seed=0)
        wide = catalog.star_around("orders")
        result = explorer(wide).explore()
        assert len(result) >= 1

    def test_key_columns_never_mapped(self):
        catalog = tpc_catalog(scale=0.02, seed=0)
        wide = catalog.star_around("orders")
        profile = profile_table(wide)
        assert "orderkey" in profile.excluded
        result = explorer(wide).explore()
        for m in result.maps:
            assert "orderkey" not in m.attributes

    def test_sampled_star_is_cheaper_and_consistent(self):
        catalog = tpc_catalog(scale=0.05, seed=0)
        full = catalog.star_around("orders")
        sampled = catalog.star_around("orders", sample=1000, rng=0)
        assert sampled.n_rows <= 1000
        assert sampled.column_names == full.column_names

    def test_dimension_attribute_appears_in_maps(self):
        catalog = tpc_catalog(scale=0.02, seed=0)
        wide = catalog.star_around("orders")
        result = explorer(wide, AtlasConfig(max_maps=12)).explore()
        mapped = set().union(*(set(m.attributes) for m in result.maps))
        # customer attributes travelled through the join into the maps
        assert any(a.startswith("customers.") for a in mapped)
