"""Cross-module integration tests of the full pipeline on varied data."""

import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig, MergeMethod, NumericCutStrategy
from repro.datagen import sky_survey_table, subspace_dataset
from repro.dataset.io_csv import read_csv, write_csv
from repro.evaluation.metrics import best_map_purity
from repro.evaluation.workloads import random_query
from repro.query.parser import parse_query


class TestSubspaceRecovery:
    def test_planted_subspaces_in_top_maps(self):
        data = subspace_dataset(n_rows=15_000, seed=0)
        config = AtlasConfig(
            numeric_strategy=NumericCutStrategy.TWO_MEANS,
            merge_method=MergeMethod.COMPOSITION,
        )
        result = explorer(data.table, config).explore()
        # The composed map refines the 2-cluster truth (4 regions over 2
        # planted clusters), so score purity: regions must be label-pure.
        score = best_map_purity(
            result, data.table, data.labels_for(["size", "weight"]), top_k=5
        )
        assert score > 0.95

    def test_noise_attributes_stay_alone(self):
        data = subspace_dataset(n_rows=10_000, seed=1)
        result = explorer(data.table).explore()
        for m in result.maps:
            noisy = [a for a in m.attributes if a.startswith("noise")]
            if noisy:
                assert set(m.attributes) == set(noisy) and len(noisy) == 1


class TestSkySurvey:
    def test_explore_full_catalog(self):
        table = sky_survey_table(10_000, seed=0)
        result = explorer(table).explore()
        assert len(result) >= 3
        # correlated magnitudes should cluster together in some map
        merged = [m for m in result.maps if len(m.attributes) > 1]
        assert merged, "expected at least one multi-attribute map"

    def test_query_on_qso_region(self):
        table = sky_survey_table(10_000, seed=0)
        query = parse_query("redshift: [0.5, 5]\nmag_r: any\nclass: any")
        result = explorer(table).explore(query)
        assert len(result) >= 1
        for entry in result.ranked:
            for region in entry.map.regions:
                pred = region.predicate_on("redshift")
                if pred is not None and pred.is_restrictive:
                    assert pred.low >= 0.5 - 1e-9


class TestRandomWorkloads:
    """Claim C1/C2 over many random queries: constraints always hold."""

    @pytest.mark.parametrize("seed", range(12))
    def test_constraints_hold(self, census_small, seed, request):
        config = AtlasConfig()
        query = random_query(census_small, seed)
        result = explorer(census_small, config).explore(query)
        for entry in result.ranked:
            assert entry.map.n_regions <= config.max_regions
            assert len(entry.map.attributes) <= config.max_predicates


class TestCsvRoundTripPipeline:
    def test_explore_reloaded_csv(self, census_small, tmp_path):
        path = tmp_path / "census.csv"
        write_csv(census_small, path)
        reloaded = read_csv(path)
        original = explorer(census_small).explore()
        again = explorer(reloaded).explore()
        assert [set(m.attributes) for m in original.maps] == [
            set(m.attributes) for m in again.maps
        ]


class TestDeterminism:
    def test_same_seed_same_result(self, census_small):
        config = AtlasConfig(sample_size=1000, seed=5)
        a = explorer(census_small, config).explore()
        b = explorer(census_small, config).explore()
        assert [m.label for m in a.maps] == [m.label for m in b.maps]
        assert [r.covers for r in a.ranked] == [r.covers for r in b.ranked]
