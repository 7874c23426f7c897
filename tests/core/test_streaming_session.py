"""Streaming at the session layer: explorer append, session refresh,
facade append, anytime re-targeting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import ExplorationSession
from repro.dataset.table import Table
from repro.engine.facade import explorer
from repro.errors import MapError
from repro.query.parser import parse_query


def people_table(n: int = 120, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "age": rng.uniform(18, 90, n).tolist(),
            "income": rng.lognormal(10, 1, n).tolist(),
            "group": rng.choice(["north", "south"], n).tolist(),
        },
        name="people",
    )


def delta(n: int = 30, seed: int = 5) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "age": rng.uniform(18, 90, n).tolist(),
        "income": rng.lognormal(10, 1, n).tolist(),
        "group": rng.choice(["south", "west"], n).tolist(),
    }


class TestAtlasAppend:
    def test_append_advances_engine_and_answers_new_version(self):
        atlas = explorer(people_table())
        before = atlas.explore()
        appended = atlas.append(delta()).table
        assert atlas.table is appended and appended.version == 1
        after = atlas.explore()
        assert before.version == 0 and after.version == 1
        assert after.n_rows_used == 150

    def test_advance_rejects_stale_tables(self):
        atlas = explorer(people_table())
        with pytest.raises(MapError):
            atlas.context.advance(people_table())


class TestSessionStreaming:
    def test_refresh_reexplores_the_whole_breadcrumb(self):
        session = ExplorationSession(explorer(people_table()))
        session.start()
        session.drill(0)
        trail = [step.query for step in session._history]
        session.append(delta())
        # History still shows the pre-append snapshots...
        assert all(
            step.map_set.version == 0 for step in session._history
        )
        refreshed = session.refresh()
        # ...until refresh re-answers every query at the new version.
        assert refreshed.version == 1
        assert [step.query for step in session._history] == trail
        assert all(
            step.map_set.version == 1 for step in session._history
        )
        assert session.depth == 2

    def test_refresh_requires_a_started_session(self):
        session = ExplorationSession(explorer(people_table()))
        with pytest.raises(MapError, match="not started"):
            session.refresh()

    def test_append_does_not_grow_the_profile(self):
        session = ExplorationSession(explorer(people_table()))
        session.start(parse_query("age: [20, 60]"))
        weights = session.profile.weights
        session.append(delta())
        session.refresh()
        # Refresh re-answers, it does not re-submit: new data is not
        # new user intent, so the learned interest stays put.
        assert session.profile.weights == weights


class TestFacadeAppend:
    def test_append_keeps_the_shared_context(self):
        fluent = explorer(people_table())
        fluent.explore()
        context = fluent.context
        fluent.append(delta())
        assert fluent.context is context  # maintained, not rebuilt
        answer = fluent.explore()
        assert answer.version == 1 and answer.n_rows_used == 150

    def test_append_before_first_explore(self):
        fluent = explorer(people_table()).append(delta())
        assert fluent.table.version == 1
        assert fluent.explore().version == 1

    def test_sketch_fidelity_append(self):
        fluent = explorer(people_table()).approximate(budget_rows=60)
        fluent.explore()
        fluent.append(delta())
        answer = fluent.explore()
        assert answer.version == 1
        assert answer.fidelity.startswith("sketch:")
        assert answer.n_rows_used == 60


class TestMixedAppendPaths:
    def test_session_then_facade_append_share_one_version_line(self):
        fluent = explorer(people_table())
        session = fluent.session()
        session.start()
        session.append(delta(10, seed=1))   # context moves to v1
        fluent.append(delta(10, seed=2))    # must build on v1, not v0
        assert fluent.table.version == 2
        assert fluent.explore().version == 2
        assert session.refresh().version == 2

    def test_facade_then_session_append(self):
        fluent = explorer(people_table())
        session = fluent.session()
        session.start()
        fluent.append(delta(10, seed=1))
        session.append(delta(10, seed=2))
        assert session.refresh().version == 2


class TestAnytimeAdvance:
    """An anytime policy reads its explorer's live table: an append
    through the explorer reaches the next run, never a run in flight."""

    def test_next_run_targets_the_new_version(self):
        fluent = explorer(people_table())
        anytime = fluent.anytime(initial_size=40)
        first = anytime.run()
        assert first.map_set.version == 0
        fluent.append(delta())
        second = anytime.run()
        assert second.map_set.version == 1
        assert second.map_set.n_rows_used == 150

    def test_advance_does_not_switch_a_schedule_mid_run(self):
        table = people_table()
        fluent = explorer(table)
        anytime = fluent.anytime(initial_size=30)
        ticks = anytime.ticks()
        first = next(ticks)
        fluent.append(delta())
        # The in-flight schedule keeps its version; only the next run
        # sees the appended rows (ticks must stay comparable).
        rest = list(ticks)
        assert first.map_set.version == 0
        assert all(t.map_set.version == 0 for t in rest)
        assert rest[-1].map_set.n_rows_used == table.n_rows
        assert anytime.run().map_set.version == 1
