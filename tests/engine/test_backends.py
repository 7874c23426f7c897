"""Statistics backends: exact vs. sketch fidelity.

Covers the StatsBackend seam introduced by the approximate-core
refactor: backend selection by ``AtlasConfig.fidelity``, bounded
reservoir answers, sketch-served root cuts, per-(table, config, query)
determinism of approximate results, and the per-backend usage
counters that ``/metrics`` aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AtlasConfig, Fidelity
from repro.engine.backends import (
    ExactBackend,
    SketchBackend,
    StatsBackend,
    make_backend,
)
from repro.engine.context import ExecutionContext
from repro.engine.facade import explorer
from repro.errors import ConfigError, MapError
from repro.evaluation.metrics import ranked_map_agreement
from repro.query.parser import parse_query
from repro.query.query import ConjunctiveQuery

SKETCH = AtlasConfig(fidelity="sketch:1000")


class TestFidelityConfig:
    def test_default_is_exact(self):
        assert AtlasConfig().fidelity.is_exact

    def test_string_coercion(self):
        config = AtlasConfig(fidelity="sketch:500:0.01")
        assert config.fidelity == Fidelity.sketch(budget_rows=500, epsilon=0.01)

    def test_spec_round_trip(self):
        for fidelity in (
            Fidelity.exact(),
            Fidelity.sketch(),
            Fidelity.sketch(budget_rows=123),
            Fidelity.sketch(budget_rows=7, epsilon=0.125),
            # Epsilons needing more than 6 significant digits must
            # survive the spec (regression: %g used to truncate them).
            Fidelity.sketch(budget_rows=9, epsilon=0.0012345678),
        ):
            assert Fidelity.parse(fidelity.spec()) == fidelity
            config = AtlasConfig(fidelity=fidelity)
            assert AtlasConfig.from_dict(config.to_dict()) == config

    def test_config_serde_round_trip(self):
        config = AtlasConfig(fidelity="sketch:2048:0.02")
        data = config.to_dict()
        assert data["fidelity"] == "sketch:2048:0.02"
        assert AtlasConfig.from_dict(data) == config

    def test_bad_specs_rejected(self):
        for bad in ("turbo", "sketch:0", "sketch:10:0.9", "exact:5",
                    "sketch:a", "sketch:1:2:3"):
            with pytest.raises(ConfigError):
                AtlasConfig(fidelity=bad)

    def test_non_string_rejected(self):
        with pytest.raises(ConfigError):
            AtlasConfig(fidelity=3.5)


class TestBackendSelection:
    def test_exact_by_default(self, census_small):
        context = ExecutionContext(census_small, AtlasConfig())
        assert isinstance(context.stats(), ExactBackend)

    def test_sketch_when_configured(self, census_small):
        context = ExecutionContext(census_small, SKETCH)
        backend = context.stats()
        assert isinstance(backend, SketchBackend)
        assert backend.n_rows == 1000
        assert backend.effective_table.n_rows == 1000
        assert backend.table is census_small

    def test_backends_satisfy_protocol(self, census_small):
        for config in (AtlasConfig(), SKETCH):
            backend = ExecutionContext(census_small, config).stats()
            assert isinstance(backend, StatsBackend)

    def test_make_backend_dispatch(self, census_small):
        assert isinstance(
            make_backend(census_small, Fidelity.exact()), ExactBackend
        )
        assert isinstance(
            make_backend(census_small, Fidelity.sketch(budget_rows=10)),
            SketchBackend,
        )

    def test_budget_covering_table_keeps_all_rows(self, census_small):
        config = AtlasConfig(fidelity=f"sketch:{census_small.n_rows * 2}")
        backend = ExecutionContext(census_small, config).stats()
        assert isinstance(backend, SketchBackend)
        assert backend.effective_table is census_small

    def test_sketch_backend_requires_sketch_fidelity(self, census_small):
        with pytest.raises(MapError):
            SketchBackend(census_small, Fidelity.exact())


class TestSketchAnswers:
    def test_masks_are_sample_sized(self, census_small):
        backend = ExecutionContext(census_small, SKETCH).stats()
        mask = backend.query_mask(parse_query("Age: [17, 45]"))
        assert mask.shape == (1000,)

    def test_root_numeric_cut_uses_quantile_sketch(self, census_small):
        backend = ExecutionContext(census_small, SKETCH).stats()
        cut = backend.cut_map(ConjunctiveQuery(), "Age", SKETCH)
        assert cut.n_regions == 2
        assert len(backend.snapshot()) and backend.snapshot()["quantile_sketches"] == 1
        # The split point is (approximately) the sample median.
        sketch = backend.quantile_sketch("Age")
        assert sketch.count == 1000

    def test_root_categorical_cut_uses_frequency_sketch(self, census_small):
        backend = ExecutionContext(census_small, SKETCH).stats()
        cut = backend.cut_map(ConjunctiveQuery(), "Education", SKETCH)
        assert cut.n_regions == 2
        assert backend.snapshot()["frequency_sketches"] == 1
        # The regions partition the admitted labels (Definition 1).
        seen = [
            value
            for region in cut.regions
            for value in region.predicates[0].values
        ]
        categories = census_small.column("Education").categories
        assert sorted(seen) == sorted(categories)

    def test_root_cut_memoized(self, census_small):
        backend = ExecutionContext(census_small, SKETCH).stats()
        first = backend.cut_map(ConjunctiveQuery(), "Age", SKETCH)
        hits_before = backend.counters.hits
        second = backend.cut_map(ConjunctiveQuery(), "Age", SKETCH)
        assert second is first
        assert backend.counters.hits == hits_before + 1

    def test_restricted_cut_measured_on_reservoir(self, census_small):
        backend = ExecutionContext(census_small, SKETCH).stats()
        query = parse_query("Age: [17, 45]")
        cut = backend.cut_map(query, "Age", SKETCH)
        # Sub-regions refine the queried attribute, as in the exact path.
        assert cut.n_regions >= 1
        assert all(
            any(p.attribute == "Age" for p in region.predicates)
            for region in cut.regions
        )

    def test_fidelity_epsilon_governs_all_scope_depths(self, census_small):
        # One precision knob: a delegated (restricted scope)
        # sketch-strategy cut uses fidelity.epsilon, like the root cut.
        config = AtlasConfig(
            fidelity="sketch:2000:0.02",
            numeric_strategy="sketch",
        )
        backend = ExecutionContext(census_small, config).stats()
        query = parse_query("Age: [17, 45]")
        backend.cut_map(query, "Age", config)
        inner_keys = list(backend._inner._cuts)
        assert inner_keys, "restricted cut should delegate to the reservoir"
        assert all(key[-1] == 0.02 for key in inner_keys)

    def test_agreement_with_exact_on_small_table(self, census_small):
        exact = explorer(census_small).explore("Age: [17, 90]")
        approx = (
            explorer(census_small).fidelity("sketch:2000").explore("Age: [17, 90]")
        )
        assert approx.n_rows_used == 2000
        agreement = ranked_map_agreement(
            approx, exact, census_small, top_k=3
        )
        assert agreement >= 0.8

    def test_fidelity_recorded_on_answer(self, census_small):
        approx = explorer(census_small).approximate(500).explore()
        assert approx.fidelity == "sketch:500:0.005"
        exact = explorer(census_small).explore()
        assert exact.fidelity == "exact"


class TestDeterminism:
    """Regression: sketch/sample RNG is seeded from the context's
    child generators, so approximate results are deterministic per
    (table, config, query) — in any process, in any call order."""

    def test_identical_runs_identical_answers(self, census_small):
        first = explorer(census_small, SKETCH).explore("Age: [17, 90]")
        second = explorer(census_small, SKETCH).explore("Age: [17, 90]")
        assert first.maps == second.maps
        assert [r.score for r in first.ranked] == [
            r.score for r in second.ranked
        ]

    def test_call_order_irrelevant(self, census_small):
        queries = ["Age: [17, 45]", "Age: [46, 90]", None]
        forward = explorer(census_small, SKETCH).explore_many(queries)
        backward = explorer(census_small, SKETCH).explore_many(queries[::-1])
        for a, b in zip(forward, backward[::-1]):
            assert a.maps == b.maps

    def test_seed_changes_reservoir(self, census_small):
        base = ExecutionContext(census_small, SKETCH).stats()
        other = ExecutionContext(
            census_small, SKETCH.replace(seed=1)
        ).stats()
        assert not np.array_equal(
            base.effective_table.numeric("Age").data,
            other.effective_table.numeric("Age").data,
        )

    def test_reservoirs_nest_across_budgets(self, census_small):
        small = ExecutionContext(
            census_small, AtlasConfig(fidelity="sketch:500")
        ).stats()
        large = ExecutionContext(
            census_small, AtlasConfig(fidelity="sketch:1500")
        ).stats()
        small_rows = set(small.effective_table.numeric("Age").data.tolist())
        large_rows = list(large.effective_table.numeric("Age").data.tolist())
        # A nested permutation prefix: the small reservoir's values all
        # appear in the larger one.
        assert small_rows <= set(large_rows)


class TestCountersAndSnapshot:
    def test_per_backend_counters_separate(self, census_small):
        context = ExecutionContext(census_small, SKETCH)
        context.stats().query_mask(parse_query("Age: [17, 45]"))
        snapshot = context.backend_snapshot()
        assert snapshot["sketch"]["instances"] == 1
        assert snapshot["sketch"]["misses"] > 0
        assert snapshot["exact"]["instances"] == 0
        assert snapshot["exact"]["hits"] == 0

    def test_aggregate_counters_property(self, census_small):
        context = ExecutionContext(census_small, SKETCH)
        context.stats().query_mask(parse_query("Age: [17, 45]"))
        assert context.counters.misses > 0

    def test_usage_counters_track_requests(self, census_small):
        context = ExecutionContext(census_small, SKETCH)
        backend = context.stats()
        backend.query_mask(parse_query("Age: [17, 45]"))
        backend.cut_map(ConjunctiveQuery(), "Age", SKETCH)
        usage = context.backend_snapshot()["sketch"]["usage"]
        assert usage["query_mask"] >= 1
        assert usage["cut_map"] >= 1

    def test_exact_snapshot_shape(self, census_small):
        context = ExecutionContext(census_small, AtlasConfig())
        context.stats().query_mask(parse_query("Age: [17, 45]"))
        snap = context.stats().snapshot()
        assert snap["kind"] == "exact"
        assert snap["rows"] == census_small.n_rows
        assert snap["usage"]["query_mask"] >= 1
