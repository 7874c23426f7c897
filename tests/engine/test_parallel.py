"""Unit tests for the sharded parallel execution layer."""

import sys
import time

import numpy as np
import pytest

from repro.core.config import (
    DEFAULT_SHARDS,
    AtlasConfig,
    Fidelity,
    Parallelism,
)
from repro.datagen import census_table
from repro.dataset.column import CategoricalColumn, LabelDictionary, label_text
from repro.dataset.table import Table
from repro.engine import parallel
from repro.engine.context import ExecutionContext
from repro.engine.parallel import (
    InlineVenue,
    ScanRecipe,
    ScanVenue,
    ShardedTable,
    _sketch_attributes,
    build_sharded_backend,
    tag_rng,
)
from repro.engine.pipeline import Pipeline
from repro.errors import ConfigError, MapError
from repro.sketch.state import merge_row_samples

SKETCH = Fidelity.sketch(budget_rows=2_000)


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=6_000, seed=0)


# ---------------------------------------------------------------------- #
# Parallelism config value
# ---------------------------------------------------------------------- #


class TestParallelismConfig:
    def test_default_is_serial(self):
        parallelism = AtlasConfig().parallelism
        assert parallelism == Parallelism.serial()
        assert not parallelism.is_parallel
        assert parallelism.spec() == "serial"

    def test_spec_round_trip(self):
        for spec in ("serial", "parallel:4:8", "parallel:auto:16",
                     "parallel:1:8"):
            assert Parallelism.parse(spec).spec() == spec

    def test_parse_defaults(self):
        parallelism = Parallelism.parse("parallel")
        assert parallelism.workers == "auto"
        assert parallelism.shards == DEFAULT_SHARDS
        assert Parallelism.parse("parallel:4").shards == DEFAULT_SHARDS

    def test_of_fixes_shards_independently_of_workers(self):
        assert Parallelism.of(2).shards == Parallelism.of(16).shards

    def test_worker_count_coercion(self):
        config = AtlasConfig(parallelism=4)
        assert config.parallelism == Parallelism(workers=4,
                                                 shards=DEFAULT_SHARDS)

    def test_config_serde_round_trip(self):
        config = AtlasConfig(parallelism="parallel:4:2")
        assert AtlasConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["parallelism"] == "parallel:4:2"

    def test_rejects_bad_specs(self):
        for bad in ("serial:1", "parallel:0", "parallel:x", "turbo",
                    "parallel:2:0", "parallel:2:3:4"):
            with pytest.raises(ConfigError):
                Parallelism.parse(bad)
        with pytest.raises(ConfigError):
            Parallelism(workers=0)
        with pytest.raises(ConfigError):
            Parallelism(workers="fast")
        with pytest.raises(ConfigError):
            AtlasConfig(parallelism=True)

    def test_resolved_workers(self):
        import os

        assert Parallelism(workers=3).resolved_workers == 3
        auto = Parallelism(workers="auto").resolved_workers
        assert auto == max(1, os.cpu_count() or 1)

    def test_cluster_spec_round_trip(self):
        for spec in ("cluster:2:8", "cluster:auto:16", "cluster:1:4"):
            parallelism = Parallelism.parse(spec)
            assert parallelism.is_cluster and parallelism.is_parallel
            assert parallelism.spec() == spec

    def test_cluster_parse_defaults(self):
        parallelism = Parallelism.parse("cluster")
        assert parallelism == Parallelism.cluster()
        assert parallelism.workers == "auto"
        assert parallelism.shards == DEFAULT_SHARDS
        assert Parallelism.parse("cluster:3").shards == DEFAULT_SHARDS

    def test_cluster_config_serde_round_trip(self):
        config = AtlasConfig(parallelism="cluster:2:8")
        assert AtlasConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["parallelism"] == "cluster:2:8"

    def test_cluster_rejects_bad_shapes(self):
        for bad in ("cluster:0", "cluster:x", "cluster:2:0",
                    "cluster:2:3:4"):
            with pytest.raises(ConfigError):
                Parallelism.parse(bad)
        with pytest.raises(ConfigError):
            Parallelism(workers=2, shards=1, mode="cluster")
        with pytest.raises(ConfigError):
            Parallelism(workers=2, shards=8, mode="remote")


# ---------------------------------------------------------------------- #
# ShardedTable
# ---------------------------------------------------------------------- #


class TestShardedTable:
    def test_bounds_partition_every_row(self, table):
        sharded = ShardedTable(table, 7)
        assert sharded.bounds[0][0] == 0
        assert sharded.bounds[-1][1] == table.n_rows
        for (_, high), (low, _) in zip(sharded.bounds, sharded.bounds[1:]):
            assert high == low
        assert sum(hi - lo for lo, hi in sharded.bounds) == table.n_rows
        # Sizes are as even as possible.
        sizes = {hi - lo for lo, hi in sharded.bounds}
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_rows_keeps_layout(self):
        # The config's shard count is honored verbatim: trailing
        # shards are empty rather than silently dropped, so the RNG
        # streams a `shards=8` config names exist on any table size.
        tiny = census_table(n_rows=3, seed=0)
        sharded = ShardedTable(tiny, 8)
        assert sharded.n_shards == 8
        assert [hi - lo for lo, hi in sharded.bounds] == [1] * 3 + [0] * 5
        assert sharded.bounds[-1] == (3, 3)
        # Empty shards materialize as empty tables.
        assert sharded.shard(7).n_rows == 0

    def test_shard_materialization_matches_bounds(self, table):
        sharded = ShardedTable(table, 4)
        low, high = sharded.bounds[1]
        shard = sharded.shard(1)
        assert shard.n_rows == high - low
        np.testing.assert_array_equal(
            shard.numeric("Age").data, table.numeric("Age").data[low:high]
        )

    def test_rejects_empty_table_and_bad_counts(self, table):
        from repro.dataset.table import Table

        with pytest.raises(MapError):
            ShardedTable(Table([]), 2)
        with pytest.raises(MapError):
            ShardedTable(table, 0)


# ---------------------------------------------------------------------- #
# Scan venues and RNG derivation
# ---------------------------------------------------------------------- #


class TestExecutors:
    def test_tag_rng_matches_child_rng(self, table):
        """Shard scans must draw the streams the context would hand out."""
        context = ExecutionContext(table, AtlasConfig(seed=7))
        tag = "shard:3:12345"
        np.testing.assert_array_equal(
            tag_rng(7, tag).integers(0, 1 << 30, 16),
            context.child_rng(tag).integers(0, 1 << 30, 16),
        )

    def test_serial_executor_preserves_order(self, table):
        results = InlineVenue().scan(*_scan_args(table))
        assert [shard.provenance["shard"] for shard in results] == [0, 1, 2, 3]

    def test_parallel_executor_matches_serial(self, table):
        args = _scan_args(table)
        threaded = InlineVenue(2).scan(*args)
        inline = InlineVenue().scan(*args)
        assert [_statistics(shard) for shard in threaded] == [
            _statistics(shard) for shard in inline
        ]

    def test_local_venue_fallbacks(self, table, monkeypatch):
        """With no venue given, the build scans locally with the
        setting's resolved worker count."""
        created = []

        class RecordingInline(InlineVenue):
            def __init__(self, workers=1):
                super().__init__(workers)
                created.append(self.workers)

        monkeypatch.setattr(parallel, "InlineVenue", RecordingInline)
        for setting in (
            Parallelism(workers=1, shards=4),
            Parallelism(workers=3, shards=4),
            Parallelism(workers="auto", shards=4),
        ):
            build_sharded_backend(table, SKETCH, setting, seed=0)
            assert created.pop() == setting.resolved_workers

    def test_parallel_executor_rejects_bad_workers(self):
        with pytest.raises(MapError):
            InlineVenue(0)

    def test_scan_threads_share_one_lazy_decode(self, table):
        """More scan threads than cores, racing on deferred label
        dictionaries: each decodes once, and every shard scans as it
        does in the calling thread."""
        decodes = []

        def deferred(column):
            def decode():
                decodes.append(column.name)
                time.sleep(0.001)
                return label_text(column.categories)

            dictionary = LabelDictionary(len(column.categories), load=decode)
            return CategoricalColumn.stored(
                column.name, len(column), lambda: column.codes, dictionary
            )

        lazy = Table(
            [
                deferred(column)
                if isinstance(column, CategoricalColumn) else column
                for column in table.columns
            ],
            name=table.name,
        )
        _, layout, recipe = _scan_args(table, shards=16)
        expected = [
            _statistics(shard)
            for shard in InlineVenue().scan(table, layout, recipe)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = InlineVenue(8).scan(
                lazy, ShardedTable(lazy, 16), recipe
            )
        finally:
            sys.setswitchinterval(interval)
        assert [_statistics(shard) for shard in threaded] == expected
        assert sorted(decodes) == sorted(
            name for name, _ in recipe.categorical
        )


def _scan_args(table, shards=4):
    """``(table, layout, recipe)`` as the build hands them to a venue."""
    numeric, categorical = _sketch_attributes(table)
    parallelism = Parallelism(workers=1, shards=shards)
    recipe = ScanRecipe(
        seed=0,
        budget_rows=SKETCH.budget_rows,
        sample_rows=True,
        epsilon=SKETCH.epsilon,
        numeric=numeric,
        categorical=categorical,
        parallelism=parallelism,
    )
    return table, ShardedTable(table, shards), recipe


def _statistics(shard):
    """Everything deterministic about a shard scan (timing dropped)."""
    return {
        "index": shard.provenance["shard"],
        "n_rows": shard.n_rows,
        "sample": shard.sample.tolist(),
        "quantiles": {
            name: sketch.to_dict() for name, sketch in shard.quantiles.items()
        },
        "frequencies": {
            name: sketch.to_dict()
            for name, sketch in shard.frequencies.items()
        },
    }


# ---------------------------------------------------------------------- #
# Sample merging
# ---------------------------------------------------------------------- #


class TestMergeRowSamples:
    def test_concatenates_when_union_fits(self):
        merged, seen = merge_row_samples(
            np.array([1, 2]), 10, np.array([5, 6]), 20, 8,
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(merged, [1, 2, 5, 6])
        assert seen == 30

    def test_respects_capacity_and_membership(self):
        rng = np.random.default_rng(0)
        sample_a = np.arange(100)
        sample_b = np.arange(100, 300)
        merged, seen = merge_row_samples(sample_a, 1_000, sample_b, 2_000,
                                         50, rng)
        assert len(merged) == 50
        assert seen == 3_000
        assert set(merged) <= set(range(300))
        assert len(set(merged)) == 50

    def test_deterministic_given_rng(self):
        draws = [
            merge_row_samples(
                np.arange(100), 500, np.arange(100, 200), 500, 60,
                np.random.default_rng(42),
            )[0]
            for _ in range(2)
        ]
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_weights_by_rows_seen(self):
        """The heavier stream contributes proportionally more rows."""
        rng = np.random.default_rng(1)
        totals = []
        for _ in range(50):
            merged, _ = merge_row_samples(
                np.arange(1_000), 9_000, np.arange(1_000, 2_000), 1_000,
                500, rng,
            )
            totals.append(int((merged < 1_000).sum()))
        mean_from_a = sum(totals) / len(totals)
        assert 400 <= mean_from_a <= 500  # expectation is 450


# ---------------------------------------------------------------------- #
# The sharded backend
# ---------------------------------------------------------------------- #


class TestShardedBackend:
    def test_build_produces_drop_in_sketch_backend(self, table):
        backend = build_sharded_backend(
            table, SKETCH, Parallelism(workers=1, shards=4), seed=0
        )
        assert backend.snapshot()["parallel"]["shards"] == 4
        assert backend.kind == "sketch"
        assert backend.table is table
        assert backend.n_rows == SKETCH.budget_rows
        assert len(backend.shard_seconds) == 4

    def test_full_scan_sketches_cover_every_row(self, table):
        backend = build_sharded_backend(
            table, SKETCH, Parallelism(workers=1, shards=4), seed=0
        )
        # The merged GK summary observed all table rows, not a reservoir.
        assert backend.quantile_sketch("Age").count == table.n_rows
        assert backend.frequency_sketch("Sex").count == table.n_rows

    def test_reservoir_is_uniform_subset_of_table(self, table):
        backend = build_sharded_backend(
            table, SKETCH, Parallelism(workers=1, shards=4), seed=0
        )
        sample = backend.effective_table
        assert sample.n_rows == SKETCH.budget_rows
        # Every sampled Age value exists in the table (indices valid).
        assert set(np.unique(sample.numeric("Age").data)) <= set(
            np.unique(table.numeric("Age").data)
        )

    def test_budget_covering_table_uses_it_whole(self, table):
        wide = Fidelity.sketch(budget_rows=table.n_rows + 1)
        backend = build_sharded_backend(
            table, wide, Parallelism(workers=1, shards=4), seed=0
        )
        assert backend.effective_table is table

    def test_rejects_exact_fidelity(self, table):
        with pytest.raises(MapError):
            build_sharded_backend(
                table, Fidelity.exact(), Parallelism(workers=1, shards=2)
            )

    def test_more_shards_than_rows_builds_cleanly(self):
        # Empty trailing shards scan to empty samples and identity
        # sketches; the fold must absorb them without special cases.
        tiny = census_table(n_rows=5, seed=1)
        backend = build_sharded_backend(
            tiny, Fidelity.sketch(budget_rows=3),
            Parallelism(workers=1, shards=8), seed=0,
        )
        assert backend.snapshot()["parallel"]["shards"] == 8
        assert backend.n_rows == 3
        assert backend.quantile_sketch("Age").count == tiny.n_rows
        assert backend.frequency_sketch("Sex").count == tiny.n_rows

    def test_empty_shard_merge_matches_fewer_shards_never(self):
        # Shards are statistics: 8 shards over 5 rows is a *different*
        # recipe from 5 shards over 5 rows, but the same 8-shard recipe
        # is stable whether or not trailing shards are empty.
        tiny = census_table(n_rows=5, seed=1)
        sketch = Fidelity.sketch(budget_rows=3)
        first = build_sharded_backend(
            tiny, sketch, Parallelism(workers=1, shards=8), seed=0
        )
        second = build_sharded_backend(
            tiny, sketch, Parallelism(workers=2, shards=8), seed=0
        )
        np.testing.assert_array_equal(
            first.effective_table.numeric("Age").data,
            second.effective_table.numeric("Age").data,
        )

    def test_context_dispatch_builds_sharded_backend(self, table):
        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        context = ExecutionContext(table, config)
        assert context.stats().snapshot()["parallel"]["shards"] == 4

    def test_context_dispatch_keeps_serial_paths(self, table):
        # Exact fidelity ignores parallelism.
        exact = ExecutionContext(
            table,
            AtlasConfig(parallelism=Parallelism(workers=1, shards=4)),
        )
        assert "parallel" not in exact.stats().snapshot()
        # Scope samples stay on the serial path.
        config = AtlasConfig(
            fidelity=SKETCH,
            parallelism=Parallelism(workers=1, shards=4),
            sample_size=1_000,
        )
        context = ExecutionContext(table, config)
        from repro.query.parser import parse_query

        scope = context.scoped(parse_query("Age: [17, 40]"))
        assert "parallel" not in context.stats_for(scope).snapshot()

    def test_snapshot_reports_shard_layout(self, table):
        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        context = ExecutionContext(table, config)
        snapshot = context.stats().snapshot()
        assert snapshot["parallel"]["shards"] == 4
        assert snapshot["parallel"]["spec"] == "parallel:1:4"
        assert len(snapshot["parallel"]["shard_seconds"]) == 4
        merged = context.backend_snapshot()
        assert merged["sketch"]["parallel"]["builds"] == 1
        assert merged["sketch"]["parallel"]["shards"] == 4

    def test_pipeline_consumes_backend_unchanged(self, table):
        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        context = ExecutionContext(table, config)
        map_set = Pipeline.default().run(None, context)
        assert len(map_set) >= 1
        assert map_set.fidelity == SKETCH.spec()
        assert map_set.n_rows_used == SKETCH.budget_rows


# ---------------------------------------------------------------------- #
# Streaming maintenance
# ---------------------------------------------------------------------- #


def _append_rows(n, seed=123):
    rng = np.random.default_rng(seed)
    return {
        "Age": rng.integers(17, 90, n).astype(float).tolist(),
        "Sex": rng.choice(["Female", "Male"], n).tolist(),
        "Salary": rng.choice(["<50k", ">50k"], n).tolist(),
        "Education": rng.choice(["BSc", "MSc"], n).tolist(),
        "Eye color": rng.choice(["Blue", "Green", "Brown"], n).tolist(),
    }


class TestShardedStreaming:
    def test_advance_serves_a_sharded_successor(self, table):
        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        context = ExecutionContext(table, config)
        backend = context.stats()
        backend.quantile_sketch("Age")
        built = backend.snapshot()["parallel"]
        appended = table.append(_append_rows(500))
        maintained = context.advance(appended)
        assert context.stats() is maintained
        assert maintained is not backend
        assert maintained.version == 1
        # The build's provenance describes the build, not the table now.
        assert maintained.snapshot()["parallel"] == built
        assert maintained.snapshot()["parallel"]["shards"] == 4
        # The pre-append backend still answers at version 0.
        assert backend.version == 0 and backend.table is table
        assert backend.quantile_sketch("Age").count == table.n_rows

    def test_advance_merges_delta_at_full_rate(self, table):
        """Full-scan summaries must observe every appended row."""
        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        context = ExecutionContext(table, config)
        backend = context.stats()
        backend.quantile_sketch("Age")
        backend.frequency_sketch("Sex")
        appended = table.append(_append_rows(500))
        backend = context.advance(appended)
        assert backend.quantile_sketch("Age").count == appended.n_rows
        assert backend.frequency_sketch("Sex").count == appended.n_rows

    def test_streaming_answers_carry_new_version(self, table):
        from repro.engine.facade import explorer

        config = AtlasConfig(
            fidelity=SKETCH, parallelism=Parallelism(workers=1, shards=4)
        )
        ex = explorer(table, config)
        before = ex.explore()
        assert before.version == 0
        ex.append(_append_rows(300))
        after = ex.explore()
        assert after.version == 1
        assert after.n_rows_used == SKETCH.budget_rows


# ---------------------------------------------------------------------- #
# Venue invisibility (one differential, every venue)
# ---------------------------------------------------------------------- #

STAGES = ("fresh", "appended", "restored")


def staged_backend(table, venue, stage, fidelity, parallelism):
    """A sharded build over the first two thirds of ``table`` scanned at
    ``venue``, taken to ``stage``: as built, after two appends, or
    after a summary round trip through JSON."""
    import json

    from repro.store.warm import (
        SketchSummary,
        extract_summary,
        restore_backend,
    )

    third = table.n_rows // 3
    current = table.take(np.arange(2 * third), name=table.name)
    backend = build_sharded_backend(
        current, fidelity, parallelism, seed=7, venue=venue
    )
    backend.token_sketch("Education")
    if stage == "fresh":
        return backend
    for seed, low in enumerate((2 * third, 2 * third + third // 2)):
        delta = table.take(np.arange(low, low + third // 2))
        current = current.append(delta)
        backend = backend.advance(current, rng=seed)
    if stage == "restored":
        summary = extract_summary(backend, table_name=table.name, key="k")
        document = json.loads(json.dumps(summary.to_dict()))
        backend = restore_backend(SketchSummary.from_dict(document), current)
    return backend


def exported(backend):
    """``export_state()`` as comparable plain data, field by field."""
    from repro.store.codec import column_row

    state = backend.export_state()
    return {
        "sample": state.sample.tolist(),
        "reservoir": [
            column_row(column) for column in backend.effective_table.columns
        ],
        **{
            family: {
                attribute: sketch.to_dict()
                for attribute, sketch in getattr(state, family).items()
            }
            for family in ("quantiles", "frequencies", "tokens")
        },
        "version": state.version,
        "full_scan": state.full_scan,
    }


def assert_venue_invisible(
    table, venue, stage, fidelity=SKETCH,
    parallelism=Parallelism(workers=1, shards=4),
):
    """``venue`` leaves no trace in the statistics at ``stage``."""
    shards = parallelism.shards
    reference = staged_backend(
        table, InlineVenue(), stage, fidelity, parallelism
    )
    backend = staged_backend(table, venue, stage, fidelity, parallelism)
    state = exported(backend)
    assert state == exported(reference)
    assert state["full_scan"] is True
    assert set(state["quantiles"]) == {"Age"}
    assert len(state["frequencies"]) == 4
    parallel = backend.snapshot().get("parallel")
    if stage == "restored":
        # A summary carries no build provenance.
        assert parallel is None
    else:
        assert parallel["shards"] == shards
        assert len(parallel["shard_seconds"]) == shards
        assert len(backend.shard_seconds) == shards


class RecordingVenue:
    """Wraps an inline venue and notes what the build and the backend ask.

    Scans are recorded and run inline; any venue method beyond
    ``scan`` / ``provenance`` is recorded too, so a call the
    :class:`ScanVenue` protocol does not declare shows up in ``calls``.
    """

    def __init__(self):
        self.calls = []
        self._inline = InlineVenue()

    def scan(self, table, layout, recipe):
        self.calls.append(("scan", layout.n_shards, recipe.parallelism))
        return self._inline.scan(table, layout, recipe)

    def provenance(self, layout, parallelism):
        return self._inline.provenance(layout, parallelism)

    def __getattr__(self, name):
        def recorded(*args):
            self.calls.append((name, *args))

        return recorded


class TestVenueInvisibility:
    @pytest.mark.parametrize("stage", STAGES)
    def test_thread_pool_matches_inline(self, table, stage):
        assert_venue_invisible(table, InlineVenue(2), stage)

    def test_build_scans_once_and_advance_never_asks_the_venue(self, table):
        venue = RecordingVenue()
        parallelism = Parallelism(workers=1, shards=4)
        backend = build_sharded_backend(
            table, SKETCH, parallelism, seed=0, venue=venue
        )
        current = table
        for seed in range(3):
            current = current.append(_append_rows(300, seed=seed))
            backend = backend.advance(current, rng=seed)
        assert backend.version == 3
        assert venue.calls == [("scan", 4, parallelism)]

    def test_venue_protocol_is_scan_and_provenance(self):
        declared = {name for name in vars(ScanVenue) if not name.startswith("_")}
        assert declared == {"scan", "provenance"}

    def test_serial_backend_has_no_layout(self, table):
        backend = ExecutionContext(
            table, AtlasConfig(fidelity=SKETCH)
        ).stats()
        assert "parallel" not in backend.snapshot()
        assert backend.shard_seconds == () and backend.shard_servers == ()
        assert backend.export_state().full_scan is False
