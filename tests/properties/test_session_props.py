"""Property-based tests: random interaction walks never corrupt a session."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig
from repro.core.session import ExplorationSession
from repro.datagen import census_table
from repro.engine import explorer
from repro.errors import MapError
from repro.evaluation.workloads import figure2_query

TABLE = census_table(n_rows=2000, seed=13)

actions = st.lists(
    st.sampled_from(["drill0", "drill1", "next", "back"]),
    min_size=1,
    max_size=12,
)


class TestSessionWalk:
    @given(walk=actions)
    @settings(max_examples=25, deadline=None)
    def test_walk_keeps_invariants(self, walk):
        session = ExplorationSession(explorer(TABLE, AtlasConfig(seed=0)))
        session.start(figure2_query())
        expected_depth = 1
        for action in walk:
            try:
                if action == "drill0":
                    session.drill(0)
                    expected_depth += 1
                elif action == "drill1":
                    session.drill(1)
                    expected_depth += 1
                elif action == "next":
                    session.next_map()
                elif action == "back":
                    session.back()
                    expected_depth -= 1
            except MapError:
                # legal refusals: back at root, drill out of range,
                # empty map set after a deep drill
                continue
            # invariants after every successful action
            assert session.depth == expected_depth
            assert session.depth >= 1
            assert len(session.breadcrumb()) == session.depth
            # the current query always describes a subset of the table
            assert 0 <= session.current.query.cover(TABLE) <= 1.0

    @given(walk=actions)
    @settings(max_examples=10, deadline=None)
    def test_drill_monotonically_narrows(self, walk):
        session = ExplorationSession(explorer(TABLE, AtlasConfig(seed=0)))
        session.start(figure2_query())
        previous_cover = session.current.query.cover(TABLE)
        for action in walk:
            if action not in ("drill0", "drill1"):
                continue
            try:
                session.drill(0 if action == "drill0" else 1)
            except MapError:
                continue
            cover = session.current.query.cover(TABLE)
            assert cover <= previous_cover + 1e-12
            previous_cover = cover
