"""Integration-grade unit tests for the end-to-end engine (`explorer`)."""

import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig, MergeMethod
from repro.dataset.table import Table
from repro.errors import MapError
from repro.evaluation.workloads import figure2_query


class TestExplore:
    def test_returns_ranked_maps(self, census_small):
        result = explorer(census_small).explore(figure2_query())
        assert len(result) >= 2
        scores = [r.score for r in result.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query_maps_whole_table(self, census_small):
        result = explorer(census_small).explore()
        assert len(result) >= 1
        assert result.query.describe() == "(true)"

    def test_convenience_constraints_hold(self, census_small):
        config = AtlasConfig()
        result = explorer(census_small, config).explore(figure2_query())
        for entry in result.ranked:
            assert entry.map.n_regions <= config.max_regions
            for region in entry.map.regions:
                # predicates added by cutting (beyond the user's own)
                added = len(
                    [a for a in entry.map.attributes
                     if region.predicate_on(a) is not None
                     and region.predicate_on(a).is_restrictive]
                )
                assert added <= config.max_predicates

    def test_max_maps_respected(self, census_small):
        config = AtlasConfig(max_maps=2)
        result = explorer(census_small, config).explore(figure2_query())
        assert len(result) <= 2

    def test_timings_populated(self, census_small):
        result = explorer(census_small).explore(figure2_query())
        assert result.timings.total > 0
        assert result.timings.candidates >= 0

    def test_best_raises_on_empty(self):
        table = Table.from_dict({"flat": [1.0] * 20})
        result = explorer(table).explore()
        assert len(result) == 0
        with pytest.raises(MapError):
            result.best

    def test_empty_table_rejected(self):
        with pytest.raises(MapError, match="empty"):
            explorer(Table.from_dict({"x": []}))

    def test_describe_readable(self, census_small):
        text = explorer(census_small).explore(figure2_query()).describe()
        assert "#1" in text
        assert "Map [" in text


class TestSampling:
    def test_sample_size_caps_rows_used(self, census_small):
        config = AtlasConfig(sample_size=500)
        result = explorer(census_small, config).explore(figure2_query())
        assert result.n_rows_used == 500

    def test_sampled_result_close_to_full(self, census_small):
        full = explorer(census_small).explore(figure2_query())
        sampled = explorer(
            census_small, AtlasConfig(sample_size=1500)
        ).explore(figure2_query())
        # top map should be over the same attributes
        assert set(full.best.attributes) == set(sampled.best.attributes)

    def test_sample_larger_than_table_is_noop(self, census_small):
        config = AtlasConfig(sample_size=10 ** 9)
        result = explorer(census_small, config).explore(figure2_query())
        assert result.n_rows_used == census_small.n_rows


class TestMergeMethods:
    @pytest.mark.parametrize(
        "method", [MergeMethod.PRODUCT, MergeMethod.COMPOSITION]
    )
    def test_both_methods_run(self, census_small, method):
        config = AtlasConfig(merge_method=method)
        result = explorer(census_small, config).explore(figure2_query())
        assert len(result) >= 2

    def test_figure2_clusters_in_result(self, census_small):
        result = explorer(census_small).explore(figure2_query())
        attribute_sets = [set(m.attributes) for m in result.maps]
        assert {"Age", "Sex"} in attribute_sets
        assert {"Salary", "Education"} in attribute_sets
