"""Unit tests for anticipative computation (Section 5.1)."""

import pytest

from repro.core.anticipate import AnticipativeExplorer
from repro.core.config import AtlasConfig
from repro.engine import Explorer
from repro.evaluation.workloads import figure2_query


@pytest.fixture
def explorer(census_small) -> AnticipativeExplorer:
    return AnticipativeExplorer(Explorer(census_small, AtlasConfig()))


class TestCache:
    def test_first_call_misses(self, explorer):
        explorer.explore(figure2_query())
        assert explorer.stats.misses == 1
        assert explorer.stats.hits == 0

    def test_repeat_call_hits(self, explorer):
        query = figure2_query()
        first = explorer.explore(query)
        second = explorer.explore(query)
        assert explorer.stats.hits == 1
        assert first is second

    def test_hit_rate(self, explorer):
        query = figure2_query()
        explorer.explore(query)
        explorer.explore(query)
        explorer.explore(query)
        assert explorer.stats.hit_rate == pytest.approx(2 / 3)

    def test_equal_queries_share_entry(self, explorer):
        # two structurally equal query objects must hit the same entry
        explorer.explore(figure2_query())
        explorer.explore(figure2_query())
        assert explorer.stats.hits == 1

    def test_cache_eviction(self, census_small):
        from repro.evaluation.workloads import random_query

        explorer = AnticipativeExplorer(
            Explorer(census_small, AtlasConfig()), max_cache_entries=3
        )
        for seed in range(6):
            explorer.explore(random_query(census_small, seed))
        assert explorer.cache_size <= 3


    def test_config_change_is_not_served_stale(self, census_small):
        built = Explorer(census_small, AtlasConfig())
        prefetcher = AnticipativeExplorer(built)
        exact = prefetcher.explore(figure2_query())
        built.fidelity("sketch:500")
        sketch = prefetcher.explore(figure2_query())
        assert exact.fidelity == "exact"
        assert sketch.fidelity == "sketch:500:0.005"
        assert prefetcher.stats.misses == 2


class TestPrefetch:
    def test_prefetch_covers_drill_downs(self, explorer):
        answer = explorer.explore(figure2_query())
        computed = explorer.prefetch(answer)
        assert computed > 0
        assert explorer.stats.prefetched == computed

        # every region of the top maps is now a cache hit
        hits_before = explorer.stats.hits
        for entry in answer.ranked[:2]:
            for region in entry.map.regions:
                explorer.explore(region)
        assert explorer.stats.hits == hits_before + sum(
            entry.map.n_regions for entry in answer.ranked[:2]
        )

    def test_prefetch_idempotent(self, explorer):
        answer = explorer.explore(figure2_query())
        first = explorer.prefetch(answer)
        second = explorer.prefetch(answer)
        assert first > 0
        assert second == 0

    def test_explore_and_prefetch(self, explorer):
        answer = explorer.explore_and_prefetch(figure2_query())
        drill = answer.best.regions[0]
        misses_before = explorer.stats.misses
        explorer.explore(drill)
        assert explorer.stats.misses == misses_before  # served from cache

    def test_top_maps_limit(self, census_small):
        narrow = AnticipativeExplorer(
            Explorer(census_small, AtlasConfig()), top_maps_to_prefetch=1
        )
        answer = narrow.explore(figure2_query())
        computed = narrow.prefetch(answer)
        assert computed == answer.ranked[0].map.n_regions
