"""Unit tests for personalized sessions (Section 5.2 future work)."""

import pytest

from repro.engine import explorer
from repro.core.personalize import InterestProfile, personalized_rank
from repro.errors import ConfigError
from repro.evaluation.workloads import figure2_query
from repro.query.parser import parse_query


class TestInterestProfile:
    def test_observe_counts_restrictive_attributes(self):
        profile = InterestProfile()
        profile.observe_query(parse_query("Age: [0, 50]\nSex: any"))
        assert profile.weights == {"Age": 1.0}

    def test_repeated_observation_accumulates(self):
        profile = InterestProfile()
        for __ in range(3):
            profile.observe_query(parse_query("Age: [0, 50]"))
        assert profile.weights["Age"] == 3.0

    def test_decay_ages_old_interests(self):
        profile = InterestProfile(decay=0.5)
        profile.observe_query(parse_query("Age: [0, 50]"))
        profile.observe_query(parse_query("Salary: {'>50k'}"))
        assert profile.weights["Age"] == 0.5
        assert profile.weights["Salary"] == 1.0

    def test_bad_decay(self):
        with pytest.raises(ConfigError):
            InterestProfile(decay=0.0)

    def test_affinity_normalized(self):
        profile = InterestProfile()
        profile.observe_query(parse_query("Age: [0, 50]"))
        profile.observe_query(parse_query("Age: [0, 30]"))
        profile.observe_query(parse_query("Salary: {'>50k'}"))
        assert profile.affinity(["Age"]) == 1.0
        assert profile.affinity(["Salary"]) == 0.5
        assert profile.affinity(["Eye color"]) == 0.0
        assert profile.affinity(["Age", "Eye color"]) == 0.5

    def test_empty_profile_affinity_zero(self):
        assert InterestProfile().affinity(["Age"]) == 0.0

    def test_merge_with_peers(self):
        mine = InterestProfile()
        mine.observe_query(parse_query("Age: [0, 50]"))
        peer = InterestProfile()
        for __ in range(100):  # prolific peer
            peer.observe_query(parse_query("Salary: {'>50k'}"))
        merged = mine.merged_with([peer], peer_weight=0.5)
        # the peer's signal is normalized: it cannot drown mine
        assert merged.weights["Age"] == 1.0
        assert merged.weights["Salary"] == 0.5

    def test_merge_weight_validated(self):
        with pytest.raises(ConfigError):
            InterestProfile().merged_with([], peer_weight=2.0)


class TestPersonalizedRank:
    @pytest.fixture(scope="class")
    def maps_and_table(self, request):
        from repro.datagen import census_table

        table = census_table(n_rows=6000, seed=2)
        result = explorer(table).explore(figure2_query())
        return list(result.maps), table

    def test_blend_zero_is_entropy_order(self, maps_and_table):
        maps, table = maps_and_table
        profile = InterestProfile()
        profile.observe_query(parse_query("Eye color: {'Green'}"))
        from repro.core.ranking import rank_maps

        baseline = [r.map.label for r in rank_maps(maps, table)]
        blended = [
            r.map.label
            for r in personalized_rank(maps, table, profile, blend=0.0)
        ]
        assert blended == baseline

    def test_interest_promotes_map(self, maps_and_table):
        maps, table = maps_and_table
        profile = InterestProfile()
        for __ in range(5):
            profile.observe_query(parse_query("Eye color: {'Green'}"))
        ranked = personalized_rank(maps, table, profile, blend=0.9)
        assert "Eye color" in ranked[0].map.attributes

    def test_blend_validated(self, maps_and_table):
        maps, table = maps_and_table
        with pytest.raises(ConfigError):
            personalized_rank(maps, table, InterestProfile(), blend=1.5)

    def test_max_maps(self, maps_and_table):
        maps, table = maps_and_table
        ranked = personalized_rank(
            maps, table, InterestProfile(), max_maps=1
        )
        assert len(ranked) == 1

    def test_empty_maps(self, maps_and_table):
        __, table = maps_and_table
        assert personalized_rank([], table, InterestProfile()) == []
