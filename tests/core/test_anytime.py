"""Unit tests for the anytime explorer (Section 5.1)."""

import pytest

from repro.engine.facade import Explorer
from repro.core.config import AtlasConfig
from repro.dataset.table import Table
from repro.errors import MapError
from repro.evaluation.workloads import figure2_query


class TestTicks:
    def test_sample_sizes_grow_to_full(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=500, growth_factor=2.0
        )
        sizes = [tick.sample_size for tick in explorer.ticks()]
        assert sizes[0] == 500
        assert sizes == sorted(sizes)
        assert sizes[-1] == census_small.n_rows

    def test_every_tick_has_maps(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=500
        )
        for tick in explorer.ticks():
            assert len(tick.map_set) >= 1

    def test_first_tick_stability_zero(self, census_small):
        explorer = Explorer(census_small).anytime(figure2_query())
        first = next(explorer.ticks())
        assert first.stability == 0.0

    def test_stability_converges(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=250
        )
        last = None
        for tick in explorer.ticks():
            last = tick
        assert last is not None
        assert last.stability > 0.8  # top map stopped moving

    def test_elapsed_monotone(self, census_small):
        explorer = Explorer(census_small).anytime(figure2_query(), initial_size=500)
        times = [t.elapsed for t in explorer.ticks()]
        assert times == sorted(times)


class TestRun:
    def test_run_to_exhaustion(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=1000
        )
        result = explorer.run()
        assert result.sample_size == census_small.n_rows

    def test_run_with_immediate_timeout_yields_first_tick(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=250
        )
        result = explorer.run(timeout=0.0)
        assert result.tick == 0
        assert result.sample_size == 250

    def test_run_stops_on_stability(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=500
        )
        result = explorer.run(stability_target=0.5)
        assert result.stability >= 0.5 or result.sample_size == census_small.n_rows

    def test_sample_size_config_ignored(self, census_small):
        # the growing sample must override any configured static sample
        explorer = Explorer(census_small, AtlasConfig(sample_size=17)).anytime(
            figure2_query(), initial_size=500
        )
        first = next(explorer.ticks())
        assert first.map_set.n_rows_used == 500

    def test_empty_table_rejected(self):
        with pytest.raises(MapError):
            Explorer(Table.from_dict({"x": []})).anytime()
