"""Incremental backend maintenance: advance() on both fidelities.

The streaming contract: ``advance`` returns a successor and leaves the
backend it was called on describing its own version.  An exact
successor answers as if freshly built on the appended rows, and a
sketch successor's maintained state is semantically equivalent to a
from-scratch build — reservoir a uniform sample of the union,
per-attribute sketches summarizing every observed row within their
error bounds.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.core.config import AtlasConfig, Fidelity
from repro.dataset.table import Table
from repro.engine.backends import (
    ExactBackend,
    SketchBackend,
    make_backend,
    table_fingerprint,
)
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.errors import MapError
from repro.query.parser import parse_query
from repro.query.query import ConjunctiveQuery
from repro.service.protocol import map_set_to_dict
from repro.sketch.state import merge_row_samples
from repro.store.warm import SketchSummary


def base_table(n: int = 400, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "x": rng.normal(0.0, 1.0, n).tolist(),
            "y": rng.uniform(0.0, 10.0, n).tolist(),
            "label": rng.choice(["a", "b", "c"], n).tolist(),
        },
        name="stream",
    )


def delta_rows(n: int = 60, seed: int = 9) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "x": rng.normal(3.0, 1.0, n).tolist(),
        "y": rng.uniform(0.0, 10.0, n).tolist(),
        "label": rng.choice(["c", "d"], n).tolist(),
    }


def comparable(map_set) -> dict:
    """A map set as a dict with the timing noise removed."""
    data = map_set_to_dict(map_set)
    data.pop("timings")
    return data


class TestTableFingerprint:
    def test_version_zero_keeps_historical_form(self):
        table = base_table()
        renamed_same = Table(list(table.columns), name="stream")
        assert table_fingerprint(table) == table_fingerprint(renamed_same)

    def test_versions_never_collide(self):
        table = base_table()
        appended = table.append(delta_rows(1))
        fingerprints = {table_fingerprint(table)}
        while appended.version < 4:
            # Same name/columns; only version (and rows) move.
            assert table_fingerprint(appended) not in fingerprints
            fingerprints.add(table_fingerprint(appended))
            appended = appended.append({"x": [], "y": [], "label": []})


class TestExactAdvance:
    def test_answers_equal_fresh_backend(self):
        table = base_table()
        backend = ExactBackend(table)
        query = parse_query("x: [-10, 10]")
        backend.query_mask(query)  # populate memos at v0
        appended = table.append(delta_rows())
        backend = backend.advance(appended)
        fresh = ExactBackend(appended)
        assert backend.version == 1 and backend.n_rows == appended.n_rows
        assert np.array_equal(
            backend.query_mask(query), fresh.query_mask(query)
        )
        config = AtlasConfig()
        incremental_cut = backend.cut_map(ConjunctiveQuery(), "x", config)
        assert incremental_cut == fresh.cut_map(
            ConjunctiveQuery(), "x", config
        )

    def test_memos_invalidated_not_reused(self):
        table = base_table()
        backend = ExactBackend(table)
        query = parse_query("x: [-10, 10]")
        stale = backend.query_mask(query)
        backend = backend.advance(table.append(delta_rows()))
        refreshed = backend.query_mask(query)
        assert refreshed.shape[0] == stale.shape[0] + 60

    def test_predecessor_keeps_answering_its_own_version(self):
        table = base_table()
        backend = ExactBackend(table)
        query = parse_query("x: [-10, 10]")
        before = backend.query_mask(query)
        successor = backend.advance(table.append(delta_rows()))
        assert successor is not backend
        assert successor.query_mask(query).shape == (table.n_rows + 60,)
        assert backend.version == 0 and backend.n_rows == table.n_rows
        assert backend.query_mask(query) is before
        assert successor.counters is backend.counters
        assert successor.snapshot()["usage"]["advance"] == 1
        assert "advance" not in backend.snapshot()["usage"]

    def test_advance_validation(self):
        table = base_table()
        backend = ExactBackend(table)
        with pytest.raises(MapError, match="versions must increase"):
            backend.advance(table)
        shrunk = table.take(np.arange(10))
        with pytest.raises(MapError):
            backend.advance(shrunk.append(delta_rows(1)))

    def test_snapshot_reports_version(self):
        table = base_table()
        backend = ExactBackend(table)
        assert backend.snapshot()["version"] == 0
        backend = backend.advance(table.append(delta_rows()))
        assert backend.snapshot()["version"] == 1


class TestSketchAdvance:
    def test_budget_covering_everything_matches_concat_exactly(self):
        table = base_table(n=100)
        backend = make_backend(table, Fidelity.sketch(budget_rows=10_000))
        backend.quantile_sketch("x")
        appended = table.append(delta_rows(40))
        backend = backend.advance(appended, rng=0)
        # The reservoir is the whole appended table, in row order.
        assert backend.effective_table.n_rows == 140
        assert np.array_equal(
            backend.effective_table.numeric("x").data,
            appended.numeric("x").data,
        )

    def test_reservoir_is_bounded_uniform_subset_of_union(self):
        table = base_table(n=500)
        backend = make_backend(table, Fidelity.sketch(budget_rows=120))
        appended = table.append(delta_rows(200))
        backend = backend.advance(appended, rng=1)
        effective = backend.effective_table
        assert effective.n_rows == 120
        union = set(appended.numeric("x").data.tolist())
        assert set(effective.numeric("x").data.tolist()) <= union
        # Some delta rows should have made it in (200 of 700 rows).
        delta_values = set(appended.numeric("x").data[500:].tolist())
        assert set(effective.numeric("x").data.tolist()) & delta_values

    def test_sketches_absorb_the_full_delta_at_full_rate(self):
        # Budget covers everything → sampling rate 1 → every delta row
        # enters the maintained summaries.
        table = base_table(n=300)
        backend = make_backend(table, Fidelity.sketch(budget_rows=10_000))
        quantile_before = backend.quantile_sketch("x").count
        frequency_before = backend.frequency_sketch("label").count
        backend = backend.advance(table.append(delta_rows(80)), rng=2)
        assert backend.quantile_sketch("x").count == quantile_before + 80
        assert (
            backend.frequency_sketch("label").count == frequency_before + 80
        )

    def test_bounded_budget_subsamples_the_delta_at_the_reservoir_rate(self):
        # A summary of `budget` rows stands in for the whole table;
        # merging the raw delta would over-weight appends by
        # table/budget.  The delta must be thinned to the same rate.
        table = base_table(n=300)
        backend = make_backend(table, Fidelity.sketch(budget_rows=100))
        quantile_before = backend.quantile_sketch("x").count
        frequency_before = backend.frequency_sketch("label").count
        backend = backend.advance(table.append(delta_rows(90)), rng=2)
        quantile_growth = backend.quantile_sketch("x").count - quantile_before
        frequency_growth = (
            backend.frequency_sketch("label").count - frequency_before
        )
        # Rate is 100/300: growth must be a strict subsample, present
        # but well below the raw delta (both sketches share one draw).
        assert 0 < quantile_growth < 90
        assert frequency_growth == quantile_growth

    def test_maintained_quantiles_track_the_shifted_distribution(self):
        table = base_table(n=400, seed=3)
        backend = make_backend(table, Fidelity.sketch(budget_rows=200))
        median_before = backend.quantile_sketch("x").median()
        appended = table
        for seed in range(4):
            appended = appended.append(delta_rows(200, seed=seed))
            backend = backend.advance(appended, rng=seed)
        median_after = backend.quantile_sketch("x").median()
        # 800 delta rows centered on 3.0 against 400 base rows at 0.0
        # must pull the maintained median up decisively.
        assert median_after > median_before + 0.5

    def test_root_cuts_invalidated_on_advance(self):
        table = base_table(n=400, seed=3)
        backend = make_backend(table, Fidelity.sketch(budget_rows=10_000))
        config = AtlasConfig()
        before = backend.cut_map(ConjunctiveQuery(), "x", config)
        appended = table
        for seed in range(3):
            appended = appended.append(delta_rows(400, seed=seed))
            backend = backend.advance(appended, rng=seed)
        after = backend.cut_map(ConjunctiveQuery(), "x", config)
        assert before != after  # the distribution moved, so must the cut

    def test_heavy_new_category_survives_the_merge(self):
        # The maintained sketch keeps the Misra–Gries guarantee over
        # the merged stream: a delta-only label frequent enough
        # (count > n / (capacity + 1)) must be retained even though the
        # sketch was sized before the label existed.
        table = base_table(n=200)
        backend = make_backend(table, Fidelity.sketch(budget_rows=10_000))
        backend.frequency_sketch("label")
        heavy_delta = {
            "x": [0.0] * 300,
            "y": [0.0] * 300,
            "label": ["d"] * 300,
        }
        backend = backend.advance(table.append(heavy_delta), rng=0)
        hitters = backend.frequency_sketch("label").heavy_hitters()
        assert "d" in hitters  # 300 of 500 rows clears n/(k+1)

    def test_advance_validation(self):
        table = base_table()
        backend = make_backend(table, Fidelity.sketch(budget_rows=50))
        with pytest.raises(MapError, match="versions must increase"):
            backend.advance(table)


def assert_reservoir_is_take(backend) -> None:
    """The successor's reservoir equals ``table.take(positions)``,
    column by column, over the table's own dictionaries."""
    table, reservoir = backend.table, backend.effective_table
    expected = table.take(backend.export_state().sample)
    assert reservoir.column_names == expected.column_names
    assert reservoir.version == table.version
    for name in table.column_names:
        column, want = reservoir.column(name), expected.column(name)
        if name == "label":
            assert column.codes.tobytes() == want.codes.tobytes()
            assert column.dictionary is table.column(name).dictionary
        else:
            assert column.data.tobytes() == want.data.tobytes()


def state_digest(backend) -> int:
    document = SketchSummary(
        "stream", "k", backend.fidelity.spec(), backend.export_state()
    ).to_dict()
    return zlib.crc32(json.dumps(document, sort_keys=True).encode())


class TestSuccessorReservoir:
    """A successor's reservoir is the old reservoir's survivors plus the
    kept delta rows, never a gather over the whole grown table; its
    bytes and state equal the ``new_table.take(positions)`` recipe."""

    def test_an_empty_delta_drops_nothing(self):
        # A full ``budget_rows`` sample plus zero rows fits the budget:
        # the merge draws nothing and every old row survives.
        table = base_table(n=400)
        backend = SketchBackend(table, Fidelity.sketch(budget_rows=120), rng=7)
        before = backend.export_state().sample
        successor = backend.advance(table.append(delta_rows(0)), rng=0)
        assert_reservoir_is_take(successor)
        assert np.array_equal(successor.export_state().sample, before)
        assert successor.effective_table.n_rows == 120

    def test_a_drawn_merge_keeps_survivors_then_delta_rows(self):
        table = base_table(n=500)
        backend = SketchBackend(table, Fidelity.sketch(budget_rows=120), rng=7)
        current = table
        for seed in range(3):
            current = current.append(delta_rows(200, seed=seed))
            backend = backend.advance(current, rng=seed)
            assert_reservoir_is_take(backend)
            assert backend.effective_table.n_rows == 120

    def test_a_budget_covering_the_table_is_the_table(self):
        table = base_table(n=100)
        backend = SketchBackend(table, Fidelity.sketch(budget_rows=10_000), rng=7)
        appended = table.append(delta_rows(40))
        backend = backend.advance(appended, rng=0)
        assert backend.effective_table is appended

    def test_positions_follow_the_shared_merge_rule(self):
        table = base_table(n=500)
        backend = SketchBackend(table, Fidelity.sketch(budget_rows=120), rng=7)
        appended = table.append(delta_rows(200))
        expected, _ = merge_row_samples(
            backend.export_state().sample, 500, np.arange(500, 700), 200,
            120, np.random.default_rng(3),
        )
        successor = backend.advance(appended, rng=3)
        assert np.array_equal(successor.export_state().sample, expected)

    @pytest.mark.parametrize(
        "budget, digests",
        [
            (120, [3995856610, 3451644615, 2679721882]),
            (10_000, [2344336479, 1713564300, 3531787458]),
        ],
    )
    def test_export_state_is_pinned(self, budget, digests):
        # Pinned from the gather-based advance (``new_table.take`` over
        # every merged position) that this one replaced.
        table = base_table(n=500)
        backend = SketchBackend(table, Fidelity.sketch(budget_rows=budget), rng=7)
        backend.quantile_sketch("x")
        backend.frequency_sketch("label")
        current, seen = table, []
        for seed in range(3):
            current = current.append(delta_rows(200, seed=seed))
            backend = backend.advance(current, rng=seed)
            seen.append(state_digest(backend))
        assert seen == digests


class TestContextAdvance:
    def test_serves_the_returned_successor(self):
        query = parse_query("x: [-10, 10]")
        for fidelity in (Fidelity.exact(), Fidelity.sketch(budget_rows=80)):
            table = base_table()
            context = ExecutionContext(table, AtlasConfig(fidelity=fidelity))
            backend = context.stats()
            before = np.array(backend.query_mask(query))
            appended = context.table.append(delta_rows())
            successor = context.advance(appended)
            assert successor is not backend
            assert context.stats() is successor
            assert context.version == 1 and context.table is appended
            assert successor.version == 1 and successor.table is appended
            # The pre-append backend still answers at version 0, over
            # its old rows.
            assert backend.version == 0 and backend.table is table
            assert backend.table.n_rows == 400
            assert np.array_equal(backend.query_mask(query), before)

    def test_returns_none_when_no_stats_were_built(self):
        context = ExecutionContext(base_table(), AtlasConfig())
        assert context.advance(context.table.append(delta_rows())) is None
        assert context.version == 1

    def test_scope_samples_dropped(self):
        context = ExecutionContext(
            base_table(), AtlasConfig(sample_size=50)
        )
        query = parse_query("x: [-10, 10]")
        before = context.scoped(query)
        context.advance(context.table.append(delta_rows()))
        after = context.scoped(query)
        assert after is not before
        assert after.version == 1

    def test_validation(self):
        context = ExecutionContext(base_table(), AtlasConfig())
        with pytest.raises(MapError, match="versions must increase"):
            context.advance(context.table)
        different = Table.from_dict({"z": [1.0]}, name="other")
        appended = different.append({"z": [2.0]})
        with pytest.raises(MapError, match="different schema"):
            context.advance(appended)

    def test_incremental_equals_fresh_exact_answers(self):
        table = base_table()
        context = ExecutionContext(table, AtlasConfig())
        pipeline = Pipeline.default()
        pipeline.run(None, context)  # warm v0 memos
        appended = table.append(delta_rows())
        context.advance(appended)
        incremental = pipeline.run(None, context)
        fresh = pipeline.run(
            None, ExecutionContext(appended, AtlasConfig())
        )
        assert comparable(incremental) == comparable(fresh)
        assert incremental.version == 1

    def test_sketch_context_stays_deterministic(self):
        config = AtlasConfig(fidelity=Fidelity.sketch(budget_rows=80))
        pipeline = Pipeline.default()

        def stream() -> list[dict]:
            table = base_table()
            context = ExecutionContext(table, config)
            answers = [comparable(pipeline.run(None, context))]
            for seed in (5, 6):
                table = table.append(delta_rows(70, seed=seed))
                context.advance(table)
                answers.append(comparable(pipeline.run(None, context)))
            return answers

        assert stream() == stream()  # reservoir top-ups derive from seeds

    def test_mapset_version_survives_the_wire(self):
        from repro.service.protocol import map_set_from_dict

        context = ExecutionContext(base_table(), AtlasConfig())
        context.advance(context.table.append(delta_rows()))
        answer = Pipeline.default().run(None, context)
        assert answer.version == 1
        assert map_set_from_dict(map_set_to_dict(answer)).version == 1
