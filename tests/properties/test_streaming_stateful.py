"""Stateful streaming test: interleaved append / explore / refresh /
cache traffic against a from-scratch model.

A :class:`hypothesis.stateful.RuleBasedStateMachine` drives the whole
streaming surface at once — an exploration session (exact fidelity), an
incrementally-maintained sketch backend pair, and an in-process
exploration service — while a plain "model" accumulates the same rows.
After every step:

* the session's exact answers equal a pipeline run over a fresh
  :class:`Table` built from the concatenated rows (bit-identical maps),
* the big-budget sketch backend's maintained state *equals* a
  from-scratch build on the concatenated rows (its reservoir covers
  everything, so equality is exact: same rows, same order, sketch
  counts equal the full stream),
* the bounded sketch backend keeps its structural invariants (reservoir
  is a uniform-size subset of the union, sketches absorbed every delta),
* the service never serves a pre-append answer at a post-append
  version (cache hits only ever repeat the current version's answer).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import AtlasConfig, Fidelity
from repro.core.session import ExplorationSession
from repro.dataset.table import Table
from repro.engine.backends import make_backend
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.query.parser import parse_query
from repro.service.protocol import map_set_to_dict
from repro.service.service import ExplorationService

#: A big budget (covers every table the machine can build) makes the
#: maintained reservoir *equal* the concatenated rows; the bounded
#: budget exercises the hypergeometric top-up path.
BIG_BUDGET = 100_000
SMALL_BUDGET = 24

QUERIES = (None, "x: [0, 50]", "label: {'a', 'b'}")

values = st.floats(
    min_value=-100, max_value=100, allow_nan=False, width=32
)
labels = st.sampled_from(["a", "b", "c", "d"])
batches = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.one_of(values, st.none()), min_size=n, max_size=n),
        st.lists(st.one_of(labels, st.none()), min_size=n, max_size=n),
    )
)


def comparable(map_set) -> dict:
    data = map_set_to_dict(map_set)
    data.pop("timings")
    data.pop("version")  # checked separately against the model
    return data


class StreamingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pipeline = Pipeline.default()
        self.exact_config = AtlasConfig()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @initialize()
    def start(self):
        self.model_rows: dict[str, list] = {
            "x": [5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 15.0, 35.0],
            "label": ["a", "b", "a", "c", "b", "a", "c", "b"],
        }
        self.table = Table.from_dict(dict(self.model_rows), name="stream")
        self.session = ExplorationSession(self.table, self.exact_config)
        self.session.start()
        self.big_sketch = make_backend(
            self.table, Fidelity.sketch(budget_rows=BIG_BUDGET), rng=0
        )
        self.small_sketch = make_backend(
            self.table, Fidelity.sketch(budget_rows=SMALL_BUDGET), rng=0
        )
        self.service = ExplorationService(max_workers=1)
        self.service.register("stream", self.table)
        self.version = 0
        self.served_queries: set[str | None] = set()

    def teardown(self):
        if hasattr(self, "service"):
            self.service.close()

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def fresh_table(self) -> Table:
        """A from-scratch build on the concatenated rows."""
        return Table.from_dict(dict(self.model_rows), name="stream")

    def fresh_answer(self, query):
        parsed = parse_query(query) if isinstance(query, str) else query
        return self.pipeline.run(
            parsed, ExecutionContext(self.fresh_table(), self.exact_config)
        )

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    @rule(batch=batches)
    def append(self, batch):
        xs, cats = batch
        rows = {"x": xs, "label": cats}
        for column, additions in rows.items():
            self.model_rows[column] = self.model_rows[column] + list(
                additions
            )
        self.version += 1
        self.table = self.session.append(rows)
        self.big_sketch.advance(self.table, rng=self.version)
        self.small_sketch.advance(self.table, rng=self.version)
        self.service.append("stream", rows)
        self.served_queries.clear()

    @rule(query=st.sampled_from(QUERIES))
    def explore(self, query):
        """(Re)start the session at a query; answers must match a
        from-scratch build at the current version."""
        parsed = parse_query(query) if isinstance(query, str) else None
        answer = self.session.start(parsed)
        assert answer.version == self.version
        assert comparable(answer) == comparable(self.fresh_answer(query))

    @precondition(lambda self: self.session.depth > 0)
    @rule()
    def refresh(self):
        """Refreshing the breadcrumb re-answers it at the live version."""
        refreshed = self.session.refresh()
        assert refreshed.version == self.version
        current_query = self.session.current.query
        assert comparable(refreshed) == comparable(
            self.fresh_answer(current_query)
        )

    @precondition(
        lambda self: self.session.depth > 0
        and len(self.session.current.map_set.ranked) > 0
    )
    @rule()
    def drill(self):
        map_set = self.session.drill(0)
        assert comparable(map_set) == comparable(
            self.fresh_answer(self.session.current.query)
        )

    @rule(query=st.sampled_from(QUERIES))
    def service_explore(self, query):
        """Cache traffic: hits may only repeat the current version."""
        expect_hit = query in self.served_queries
        response = self.service.explore("stream", query)
        assert response.cached is expect_hit
        assert response.map_set.version == self.version
        assert comparable(response.map_set) == comparable(
            self.fresh_answer(query)
        )
        self.served_queries.add(query)

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def big_sketch_equals_from_scratch_build(self):
        if not hasattr(self, "table"):
            return
        fresh = self.fresh_table()
        effective = self.big_sketch.effective_table
        # Budget covers everything: the maintained reservoir must be
        # the concatenated rows, in order.
        assert effective.n_rows == fresh.n_rows
        assert np.array_equal(
            effective.numeric("x").data,
            fresh.numeric("x").data,
            equal_nan=True,
        )
        assert (
            effective.categorical("label").decode()
            == fresh.categorical("label").decode()
        )
        assert self.big_sketch.version == self.version

    @invariant()
    def big_sketch_summaries_cover_the_whole_stream(self):
        if not hasattr(self, "table"):
            return
        fresh = self.fresh_table()
        quantile = self.big_sketch.quantile_sketch("x")
        data = fresh.numeric("x").data
        valid = data[~np.isnan(data)]
        assert quantile.count == valid.size
        if valid.size:
            # Extremes are tracked exactly by GK, merges included.
            assert quantile.query(0.0) == valid.min()
            assert quantile.query(1.0) == valid.max()
        frequency = self.big_sketch.frequency_sketch("label")
        codes = fresh.categorical("label").codes
        assert frequency.count == int((codes >= 0).sum())

    @invariant()
    def small_sketch_structural_invariants(self):
        if not hasattr(self, "table"):
            return
        fresh = self.fresh_table()
        effective = self.small_sketch.effective_table
        assert effective.n_rows == min(SMALL_BUDGET, fresh.n_rows)
        union = fresh.numeric("x").data
        union = set(union[~np.isnan(union)].tolist())
        sample = effective.numeric("x").data
        sample = set(sample[~np.isnan(sample)].tolist())
        assert sample <= union
        assert self.small_sketch.version == self.version

    @invariant()
    def service_is_at_the_model_version(self):
        if not hasattr(self, "service"):
            return
        assert self.service._resolve_table("stream").version == self.version


TestStreaming = StreamingMachine.TestCase
TestStreaming.settings = settings(
    max_examples=12, stateful_step_count=10, deadline=None
)
