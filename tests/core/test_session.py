"""Unit tests for the exploration session (Figure-1 interaction loop)."""

import pytest

from repro.core.config import AtlasConfig
from repro.core.session import ExplorationSession
from repro.engine import explorer
from repro.errors import MapError
from repro.evaluation.workloads import figure2_query


@pytest.fixture
def session(census_small) -> ExplorationSession:
    return ExplorationSession(explorer(census_small, AtlasConfig(seed=3)))


class TestLifecycle:
    def test_not_started_raises(self, session):
        with pytest.raises(MapError, match="start"):
            session.current

    def test_start(self, session):
        map_set = session.start(figure2_query())
        assert len(map_set) >= 1
        assert session.depth == 1

    def test_restart_resets(self, session):
        session.start(figure2_query())
        session.drill(0)
        session.start(figure2_query())
        assert session.depth == 1


class TestDrill:
    def test_drill_pushes_region_query(self, session, census_small):
        session.start(figure2_query())
        region = session.current_map.regions[0]
        session.drill(0)
        assert session.depth == 2
        assert session.current.query == region

    def test_drill_narrows_cover(self, session, census_small):
        session.start(figure2_query())
        parent_cover = session.current.query.cover(census_small)
        session.drill(0)
        child_cover = session.current.query.cover(census_small)
        assert child_cover < parent_cover

    def test_drill_out_of_range(self, session):
        session.start(figure2_query())
        with pytest.raises(MapError, match="out of range"):
            session.drill(99)

    def test_back(self, session):
        session.start(figure2_query())
        session.drill(0)
        session.back()
        assert session.depth == 1

    def test_back_at_root_rejected(self, session):
        session.start(figure2_query())
        with pytest.raises(MapError, match="root"):
            session.back()


class TestNextMap:
    def test_cycles_through_ranked_maps(self, session):
        map_set = session.start(figure2_query())
        first = session.current_map
        second = session.next_map()
        if len(map_set) > 1:
            assert second != first
        # full cycle returns to the start
        for __ in range(len(map_set) - 1):
            session.next_map()
        assert session.current_map == first

    def test_breadcrumb(self, session):
        session.start(figure2_query())
        session.drill(0)
        trail = session.breadcrumb()
        assert len(trail) == 2
        assert "Age" in trail[0]


class TestPersonalization:
    def test_profile_learns_from_drills(self, session):
        session.start(figure2_query())
        session.drill(0)
        drilled_attrs = {
            p.attribute
            for p in session.current.query.restrictive_predicates
        }
        assert drilled_attrs & set(session.profile.weights)

    def test_personalized_maps_returns_ranked(self, session):
        session.start(figure2_query())
        ranked = session.personalized_maps(blend=0.5)
        assert len(ranked) == len(session.current.map_set.ranked)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_blend_zero_keeps_entropy_order(self, session):
        session.start(figure2_query())
        baseline = [r.map.label for r in session.current.map_set.ranked]
        ranked = [r.map.label for r in session.personalized_maps(blend=0.0)]
        assert ranked == baseline


class TestReconfigure:
    def test_keeps_history_and_reanswers(self, session):
        session.start(figure2_query())
        session.drill(0)
        trail_before = session.breadcrumb()
        map_set = session.reconfigure(fidelity="sketch:1000")
        assert session.breadcrumb() == trail_before
        assert session.depth == 2
        assert map_set.fidelity == "sketch:1000:0.005"
        # All history answers were re-answered at the new fidelity.
        assert all(
            step.map_set.fidelity == "sketch:1000:0.005"
            for step in session._history
        )
        # back() still pops to the (re-answered) root.
        assert session.back().fidelity == "sketch:1000:0.005"

    def test_profile_not_double_observed(self, session):
        session.start(figure2_query())
        session.drill(0)
        weights_before = dict(session.profile.weights)
        session.reconfigure(fidelity="sketch:1000")
        assert dict(session.profile.weights) == weights_before

    def test_requires_started_session(self, census_small):
        from repro.core.session import ExplorationSession
        from repro.errors import MapError

        fresh = ExplorationSession(explorer(census_small))
        with pytest.raises(MapError):
            fresh.reconfigure(fidelity="sketch:1000")

    def test_custom_pipeline_survives(self, census_small):
        from repro.engine import explorer
        from repro.engine.pipeline import Pipeline
        from repro.engine.stages import default_stages

        class TagStage:
            name = "tag"

            def run(self, state, context):
                state.meta["tagged"] = True

        pipeline = Pipeline([TagStage(), *default_stages()])
        session = explorer(census_small).with_pipeline(pipeline).session()
        session.start(figure2_query())
        session.reconfigure(fidelity="sketch:1000")
        # The custom stage still runs after the switch: its timing key
        # shows up in the re-answered result.
        extra = dict(session.current.map_set.timings.extra)
        assert "tag" in extra
