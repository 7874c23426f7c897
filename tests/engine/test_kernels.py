"""The columnar kernel layer: timing, degenerate shapes, agreement with
the pure-Python oracle, and the removed ``kernels`` knob."""

from __future__ import annotations

import pytest

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table
from repro.engine.context import ExecutionContext
from repro.engine.facade import explorer
from repro.engine.kernels import (
    KernelTimings,
    frequency_summary_from_codes,
    quantile_summary,
    sorted_clean_values,
)
from repro.engine.parallel import (
    ShardedTable,
    _sketch_attributes,
    scan_shard_values,
    shard_column_values,
)
from repro.engine.pipeline import Pipeline
from repro.errors import ConfigError
from repro.evaluation import map_set_fingerprint
from tests.properties.test_kernel_props import (
    oracle_frequency_summary_from_codes,
    oracle_quantile_summary,
    oracle_sorted_clean_values,
)

#: The kernels and the pure-Python oracle they are checked against.
BUILDS = {
    "numpy": (
        sorted_clean_values, quantile_summary, frequency_summary_from_codes
    ),
    "python": (
        oracle_sorted_clean_values,
        oracle_quantile_summary,
        oracle_frequency_summary_from_codes,
    ),
}


class TestKnobRemoved:
    """One kernel path: the old ``kernels`` selector is an unknown field
    on every configuration surface."""

    def test_constructor_rejects_the_knob(self):
        with pytest.raises(TypeError, match="kernels"):
            AtlasConfig(kernels="numpy")  # type: ignore[call-arg]

    def test_replace_rejects_the_knob(self):
        with pytest.raises(ConfigError, match="kernels"):
            AtlasConfig().replace(kernels="numpy")

    def test_from_dict_rejects_the_knob(self):
        with pytest.raises(ConfigError, match="kernels"):
            AtlasConfig.from_dict({**AtlasConfig().to_dict(), "kernels": "auto"})

    def test_configure_rejects_the_knob(self):
        with pytest.raises(ConfigError, match="kernels"):
            explorer(census_table(n_rows=50, seed=0)).configure(kernels="python")

    def test_config_dict_has_no_knob(self):
        assert "kernels" not in AtlasConfig().to_dict()


class TestTimings:
    def test_add_and_as_dict(self):
        timings = KernelTimings()
        timings.add("gk_build", 100)
        timings.add("gk_build", 50)
        assert timings.as_dict() == {"gk_build": 150}
        assert timings.calls["gk_build"] == 2

    def test_merge_block_and_dict(self):
        left = KernelTimings()
        left.add("sort_clean", 10)
        right = KernelTimings()
        right.add("sort_clean", 5)
        right.add("mg_build", 7)
        left.merge(right)
        left.merge({"mg_build": 3})
        assert left.as_dict() == {"sort_clean": 15, "mg_build": 10}

    def test_kernels_meter_into_the_block(self):
        timings = KernelTimings()
        quantile_summary([3.0, 1.0, 2.0], 0.1, timings=timings)
        assert set(timings.nanos) == {"sort_clean", "gk_build"}
        assert all(nanos >= 0 for nanos in timings.nanos.values())


class TestDegenerateShapes:
    """Kernels and oracle agree on the shapes the property suite
    reaches only by chance."""

    @pytest.mark.parametrize("mode", list(BUILDS))
    def test_all_nan_column(self, mode):
        sort_clean, quantiles, _ = BUILDS[mode]
        values = [float("nan")] * 10
        assert len(sort_clean(values)) == 0
        assert quantiles(values, 0.01).count == 0

    @pytest.mark.parametrize("mode", list(BUILDS))
    def test_empty_column(self, mode):
        sort_clean, quantiles, frequencies = BUILDS[mode]
        assert len(sort_clean([])) == 0
        assert quantiles([], 0.01).count == 0
        assert frequencies([], ["a"], 4).count == 0

    @pytest.mark.parametrize("mode", list(BUILDS))
    def test_single_row(self, mode):
        _, quantiles, _ = BUILDS[mode]
        sketch = quantiles([42.0], 0.01)
        assert sketch.count == 1
        assert sketch.median() == 42.0

    @pytest.mark.parametrize("mode", list(BUILDS))
    def test_all_missing_codes(self, mode):
        _, _, frequencies = BUILDS[mode]
        sketch = frequencies([-1, -1, -1], ["a", "b"], 4)
        assert sketch.count == 0 and sketch.heavy_hitters() == {}


def oracle_sketches(numeric_values, categorical_values, epsilon=0.01):
    """The serialized sketches the oracle builds over one shard."""
    quantiles = {
        attribute: oracle_quantile_summary(values, epsilon).to_dict()
        for attribute, values in numeric_values.items()
    }
    frequencies = {
        attribute: oracle_frequency_summary_from_codes(
            codes, categories, capacity
        ).to_dict()
        for attribute, capacity, (codes, categories) in categorical_values
    }
    return quantiles, frequencies


class TestShardScanDifferential:
    """scan_shard_values against the oracle, via the real shard slicing
    (raw code buffers on the local path)."""

    @pytest.fixture(scope="class")
    def table(self):
        return census_table(n_rows=900, seed=11)

    def inputs(self, table, low, high):
        numeric, categorical = _sketch_attributes(table)
        return shard_column_values(
            table, low, high, numeric, categorical, decode_labels=False
        )

    def scan(self, shard, low, high, numeric_values, categorical_values):
        return scan_shard_values(
            index=shard, low=low, n_rows=high - low,
            seed=5, fingerprint=b"test", budget_rows=300, sample_rows=True,
            epsilon=0.01, numeric=numeric_values,
            categorical=categorical_values,
        )

    def assert_matches_oracle(self, table, shard, low, high):
        numeric_values, categorical_values = self.inputs(table, low, high)
        statistics = self.scan(
            shard, low, high, numeric_values, categorical_values
        )
        quantiles, frequencies = oracle_sketches(
            numeric_values, categorical_values
        )
        assert {
            name: sketch.to_dict()
            for name, sketch in statistics.quantiles.items()
        } == quantiles
        assert {
            name: sketch.to_dict()
            for name, sketch in statistics.frequencies.items()
        } == frequencies

    def test_scan_statistics_identical_across_kernels(self, table):
        for shard, (low, high) in enumerate(ShardedTable(table, 3).bounds):
            self.assert_matches_oracle(table, shard, low, high)

    def test_scan_meters_kernels(self, table):
        numeric_values, categorical_values = self.inputs(table, 0, 300)
        statistics = self.scan(0, 0, 300, numeric_values, categorical_values)
        assert set(statistics.provenance["kernel_nanos"]) >= {
            "sort_clean", "gk_build"
        }

    def test_empty_shard(self, table):
        numeric_values, categorical_values = self.inputs(table, 0, 0)
        statistics = self.scan(0, 0, 0, numeric_values, categorical_values)
        assert statistics.sample.size == 0

    def test_single_row_table(self):
        self.assert_matches_oracle(census_table(n_rows=1, seed=2), 0, 0, 1)


class TestVenueInvisibility:
    """Worker count never shows in answers; sketch snapshots carry the
    kernel meters and no mode."""

    @pytest.fixture(scope="class")
    def table(self):
        return census_table(n_rows=1500, seed=7)

    def answer(self, table, workers):
        config = AtlasConfig(
            fidelity=Fidelity.sketch(budget_rows=600),
            parallelism=Parallelism(workers=workers, shards=4),
            seed=3,
        )
        context = ExecutionContext(table, config)
        answer = Pipeline.default().run(None, context)
        return map_set_fingerprint(answer), context

    def test_fingerprints_identical_across_workers(self, table):
        prints = {self.answer(table, workers)[0] for workers in (1, 2)}
        assert len(prints) == 1

    def test_snapshot_carries_meters_and_no_mode(self, table):
        _, context = self.answer(table, 1)
        snapshot = context.backend_snapshot()["sketch"]
        assert "kernels" not in snapshot
        assert snapshot["kernel_nanos"]
        assert all(
            isinstance(nanos, int) and nanos >= 0
            for nanos in snapshot["kernel_nanos"].values()
        )

    def test_exact_backend_stays_kernel_free(self, table):
        # The exact backend computes full-table statistics directly —
        # no sketches, so no kernel layer and no kernel meters.
        context = ExecutionContext(table, AtlasConfig(seed=3))
        Pipeline.default().run(None, context)
        snapshot = context.backend_snapshot()["exact"]
        assert "kernel_nanos" not in snapshot
