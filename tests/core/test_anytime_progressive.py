"""Progressive fidelity escalation in the anytime explorer.

The anytime contract now runs a sketch-fidelity pass first (bounded
first-answer latency) and refines toward the configured target
fidelity; these tests pin the schedule, provenance, and determinism.
"""

from __future__ import annotations

from repro.engine.facade import Explorer
from repro.core.config import AtlasConfig
from repro.evaluation.workloads import figure2_query


class TestProgressiveSchedule:
    def test_sketch_first_exact_last(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=500
        )
        results = list(explorer.ticks())
        assert results[0].fidelity.startswith("sketch:500")
        assert results[-1].fidelity == "exact"
        assert results[0].sample_size == 500
        assert results[-1].sample_size == census_small.n_rows

    def test_budgets_grow_geometrically(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=250, growth_factor=2.0
        )
        sizes = [tick.sample_size for tick in explorer.ticks()]
        assert sizes[:3] == [250, 500, 1000]
        assert sizes == sorted(sizes)

    def test_sketch_target_caps_escalation(self, census_small):
        config = AtlasConfig(fidelity="sketch:1000")
        explorer = Explorer(census_small, config).anytime(
            figure2_query(), initial_size=250
        )
        results = list(explorer.ticks())
        # Escalation stops at the configured budget, not the full table.
        assert results[-1].sample_size == 1000
        assert results[-1].fidelity == "sketch:1000:0.005"

    def test_first_answer_on_tiny_budget(self, census_small):
        explorer = Explorer(census_small).anytime(
            figure2_query(), initial_size=200
        )
        first = next(explorer.ticks())
        assert first.sample_size == 200
        assert len(first.map_set) >= 1

    def test_progressive_ticks_deterministic(self, census_small):
        def run():
            explorer = Explorer(census_small).anytime(
                figure2_query(), initial_size=500
            )
            return [tick.map_set.maps for tick in explorer.ticks()]

        assert run() == run()
