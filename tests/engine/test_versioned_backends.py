"""A statistics backend describes one table version; a run reads one.

``advance`` returns a successor and leaves the backend it was called on
untouched, and a pipeline run reads its backend once, in the scope
stage.  So an answer is computed from one backend at one version, and
its ``version`` stamp is exactly the version of the rows it came from
— even when an append lands in the middle of the run.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table, split_for_streaming
from repro.dataset.table import Table
from repro.engine.backends import SketchBackend
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.engine.stages import (
    CandidateStage,
    ClusteringStage,
    MergeStage,
    RankingStage,
    ScopeStage,
)
from repro.errors import MapError
from repro.evaluation.metrics import map_set_fingerprint
from repro.query.parser import parse_query

PIPELINE = Pipeline.default()
SHARDED_SKETCH = AtlasConfig(
    fidelity=Fidelity.sketch(budget_rows=500),
    parallelism=Parallelism(workers=1, shards=4),
)
QUERIES = (
    None,
    "Age: [17, 45]",
    "Sex: {'Female'}",
    "Education: {'BSc', 'MSc'}",
)
#: Bounded waits, so a broken handshake fails instead of hanging.
WAIT_SECONDS = 30.0


def _query(text):
    return parse_query(text) if text is not None else None


class AppendStage:
    """Appends ``rows`` to the context's table between two stages."""

    name = "append"

    def __init__(self, rows):
        self.rows = rows

    def run(self, state, context):
        context.advance(context.table.append(self.rows))


class TestStraddlingRun:
    def test_a_run_answers_from_the_backend_it_started_with(self):
        table = census_table(n_rows=6_000, seed=3)
        delta = census_table(n_rows=3_000, seed=4)
        expected = PIPELINE.run(None, ExecutionContext(table, SHARDED_SKETCH))
        context = ExecutionContext(table, SHARDED_SKETCH)
        straddling = Pipeline(
            [
                ScopeStage(),
                AppendStage(delta),
                CandidateStage(),
                ClusteringStage(),
                MergeStage(),
                RankingStage(),
            ]
        )
        answer = straddling.run(None, context)
        assert context.version == 1  # the append did land mid-run
        assert answer.version == 0
        assert map_set_fingerprint(answer) == map_set_fingerprint(expected)


class HeldAdvance:
    """Patches :meth:`SketchBackend.advance` so that its first call
    blocks, mid-advance, until :attr:`release` is set."""

    def __init__(self, monkeypatch):
        self.entered, self.release = threading.Event(), threading.Event()
        original = SketchBackend.advance

        def held(backend, new_table, rng=None):
            if not self.entered.is_set():
                self.entered.set()
                assert self.release.wait(WAIT_SECONDS)
            return original(backend, new_table, rng)

        monkeypatch.setattr(SketchBackend, "advance", held)

    def start(self, context, new_table) -> tuple[threading.Thread, list]:
        """Run ``context.advance(new_table)`` on a thread and wait until
        it is held; the list collects what the advance raises."""
        errors: list = []

        def advance():
            try:
                context.advance(new_table)
            except Exception as error:  # surfaced by the caller
                errors.append(error)

        writer = threading.Thread(target=advance)
        writer.start()
        assert self.entered.wait(WAIT_SECONDS)
        return writer, errors

    def finish(self, writer) -> None:
        self.release.set()
        writer.join(WAIT_SECONDS)
        assert not writer.is_alive()


class TestRacingReader:
    def test_reader_on_the_old_table_keeps_the_built_backend(
        self, monkeypatch
    ):
        table = census_table(n_rows=6_000, seed=3)
        context = ExecutionContext(table, SHARDED_SKETCH)
        backend = context.stats()
        held = HeldAdvance(monkeypatch)
        appended = table.append(census_table(n_rows=3_000, seed=4))
        writer, errors = held.start(context, appended)
        try:
            seen = []
            reader = threading.Thread(
                target=lambda: seen.append(context.stats_for(table))
            )
            reader.start()
            reader.join(WAIT_SECONDS)
            assert seen and seen[0] is backend
            assert seen[0].export_state().full_scan is True
            assert "parallel" in seen[0].snapshot()
        finally:
            held.finish(writer)
        assert not errors
        assert context.stats() is not backend
        assert context.stats().version == 1

    def test_overlapping_advances_are_a_typed_error(self, monkeypatch):
        table = census_table(n_rows=6_000, seed=3)
        context = ExecutionContext(table, SHARDED_SKETCH)
        context.stats()
        held = HeldAdvance(monkeypatch)
        first = table.append(census_table(n_rows=3_000, seed=4))
        writer, errors = held.start(context, first)
        try:
            second = table.append(census_table(n_rows=1_000, seed=5))
            context.advance(second)
        finally:
            held.finish(writer)
        assert len(errors) == 1 and isinstance(errors[0], MapError)
        assert context.table is second
        assert context.stats().table is second


class TestScopeSampleAcrossAnAdvance:
    def test_a_sample_of_pre_append_rows_is_not_cached(self, monkeypatch):
        table = census_table(n_rows=6_000, seed=3)
        context = ExecutionContext(table, AtlasConfig(sample_size=1_000))
        query = parse_query("Age: [17, 45]")
        drawing, release = threading.Event(), threading.Event()
        original = Table.sample

        def held_sample(self, *args, **kwargs):
            drawing.set()
            assert release.wait(WAIT_SECONDS)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Table, "sample", held_sample)
        drawn = []
        reader = threading.Thread(
            target=lambda: drawn.append(context.scoped(query))
        )
        reader.start()
        try:
            assert drawing.wait(WAIT_SECONDS)
            context.advance(table.append(census_table(n_rows=500, seed=4)))
        finally:
            release.set()
            reader.join(WAIT_SECONDS)
        assert drawn and drawn[0].version == 0
        assert context.scoped(query).version == 1
        assert PIPELINE.run(query, context).version == 1


class TestConcurrentAppends:
    """Explores racing appends on one shared context answer exactly
    what a context that saw the same appends one at a time answers at
    the stamped version."""

    def _check(self, config):
        initial, batches = split_for_streaming(
            census_table(n_rows=3_000, seed=5), 5
        )
        versions = [initial]
        for batch in batches:
            versions.append(versions[-1].append(batch))

        twin = ExecutionContext(initial, config)
        oracle = {}
        for table in versions:
            if table is not initial:
                twin.advance(table)
            for text in QUERIES:
                oracle[text, table.version] = map_set_fingerprint(
                    PIPELINE.run(_query(text), twin)
                )

        context = ExecutionContext(initial, config)
        context.stats()  # the base backend exists before any append
        done = threading.Event()
        answers, errors = [], []

        def explore(worker):
            try:
                rounds, last = 0, False
                while not last:
                    # One more round once every append has landed.
                    last = done.is_set()
                    text = QUERIES[(worker + rounds) % len(QUERIES)]
                    answer = PIPELINE.run(_query(text), context)
                    answers.append((text, answer))
                    rounds += 1
            except Exception as error:  # surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [
            threading.Thread(target=explore, args=(worker,))
            for worker in range(8)
        ]
        try:
            for thread in workers:
                thread.start()
            for table in versions[1:]:
                time.sleep(0.02)
                context.advance(table)
        finally:
            done.set()
            for thread in workers:
                thread.join(120.0)
            sys.setswitchinterval(previous)
        assert not errors
        assert not any(thread.is_alive() for thread in workers)
        assert {answer.version for _, answer in answers} >= {5}
        for text, answer in answers:
            assert map_set_fingerprint(answer) == oracle[text, answer.version]

    def test_exact(self):
        self._check(AtlasConfig())

    def test_sketch(self):
        self._check(AtlasConfig(fidelity=Fidelity.sketch(budget_rows=400)))


class TestOverBudgetScope:
    def test_uncached_scope_answers_like_a_cached_one(
        self, census_small, monkeypatch
    ):
        config = AtlasConfig(sample_size=1_000)
        query = parse_query("Age: [17, 45]")
        expected = PIPELINE.run(query, ExecutionContext(census_small, config))
        monkeypatch.setattr("repro.engine.context._MAX_SCOPE_ROWS", 500)
        context = ExecutionContext(census_small, config)
        answer = PIPELINE.run(query, context)
        assert answer.n_rows_used == 1_000
        assert map_set_fingerprint(answer) == map_set_fingerprint(expected)
        # Neither the sample nor a statistics block over it is pinned.
        assert context._scopes == {} and context._stats == {}
