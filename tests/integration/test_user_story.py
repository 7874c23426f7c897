"""End-to-end user story: every Section-5 feature in one exploration.

A single analyst session exercising the full surface: explore, read the
maps, explain a region, fetch exemplars, drill, re-rank personally,
verify the anticipative cache made the drill instant, and reproduce the
same answers over the generic SQL path.
"""

import pytest

from repro.core.anticipate import AnticipativeExplorer
from repro.core.config import AtlasConfig
from repro.core.exemplars import representative_examples
from repro.core.explain import explain_region
from repro.core.session import ExplorationSession
from repro.datagen import census_table
from repro.db.connection import SqlConnection
from repro.db.sql_atlas import SqlAtlas
from repro.engine import Explorer
from repro.evaluation.workloads import figure2_query


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=6000, seed=8)


class TestUserStory:
    def test_full_session(self, table):
        session = ExplorationSession(Explorer(table, AtlasConfig(seed=1)))

        # 1. ask for maps
        answer = session.start(figure2_query())
        assert len(answer) >= 2
        top_map = session.current_map

        # 2. why is region 0 interesting?
        region = top_map.regions[0]
        skip = tuple(
            p.attribute for p in region.predicates if p.is_restrictive
        )
        explanation = explain_region(table, region, skip)
        assert explanation.n_region_rows > 0
        assert explanation.contrasts  # something to say

        # 3. show me typical members
        examples = representative_examples(table, region, k=3)
        assert examples.n_rows == 3
        assert region.mask(examples).all()  # they really are members

        # 4. drill in, then check the profile learned the interest
        session.drill(0)
        assert session.depth == 2
        assert session.profile.weights  # non-empty

        # 5. personalized re-ranking is consistent
        session.back()
        ranked = session.personalized_maps(blend=0.5)
        assert len(ranked) == len(answer)

    def test_anticipation_makes_drills_cache_hits(self, table):
        explorer = AnticipativeExplorer(Explorer(table, AtlasConfig(seed=1)))
        answer = explorer.explore_and_prefetch(figure2_query())
        misses_before = explorer.stats.misses
        for region in answer.best.regions:
            explorer.explore(region)
        assert explorer.stats.misses == misses_before

    def test_same_story_through_sql(self, table):
        connection = SqlConnection({table.name: table})
        engine = SqlAtlas(connection, table.name)
        via_sql = engine.explore(figure2_query())
        native = ExplorationSession(Explorer(table)).start(figure2_query())
        assert [set(m.attributes) for m in via_sql.maps] == [
            set(m.attributes) for m in native.maps
        ]
