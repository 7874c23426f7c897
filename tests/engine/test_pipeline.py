"""Pipeline composition: stage order, custom stages, generic timing."""

import pytest

from repro.core import MapSet, StageTimings
from repro.engine import explorer
from repro.engine import (
    CANONICAL_STAGES,
    ExecutionContext,
    Pipeline,
    default_stages,
)
from repro.engine.pipeline import MapSet as EngineMapSet
from repro.errors import MapError
from repro.evaluation.workloads import figure2_query


class TestComposition:
    def test_default_stage_names(self):
        assert tuple(s.name for s in Pipeline.default().stages) == (
            CANONICAL_STAGES
        )

    def test_empty_pipeline_rejected(self):
        with pytest.raises(MapError, match="at least one stage"):
            Pipeline(())

    def test_stage_lookup(self):
        pipeline = Pipeline.default()
        assert pipeline.stage("ranking").name == "ranking"
        with pytest.raises(MapError, match="no stage"):
            pipeline.stage("nope")

    def test_replacing_swaps_one_stage(self, census_small):
        class NullMerge:
            name = "merging"

            def run(self, state, context):
                # Pass candidates through unmerged.
                state.merged = list(state.candidates)

        pipeline = Pipeline.default().replacing("merging", NullMerge())
        result = pipeline.run(
            figure2_query(), ExecutionContext(census_small)
        )
        # Without merging, every map is single-attribute.
        assert all(len(m.attributes) == 1 for m in result.maps)

    def test_replacing_unknown_stage_raises(self):
        with pytest.raises(MapError, match="no stage"):
            Pipeline.default().replacing("nope", object())


class TestCustomStageTiming:
    def test_extra_stage_timed_separately(self, census_small):
        class AuditStage:
            name = "audit"

            def run(self, state, context):
                state.meta["audited"] = len(state.ranked)

        pipeline = Pipeline(tuple(default_stages()) + (AuditStage(),))
        result = pipeline.run(
            figure2_query(), ExecutionContext(census_small)
        )
        extra_names = [name for name, _ in result.timings.extra]
        assert extra_names == ["audit"]
        assert result.timings.total >= sum(
            seconds for _, seconds in result.timings.extra
        )


class TestCompatAliases:
    def test_mapset_reexported_from_atlas(self):
        assert MapSet is EngineMapSet

    def test_timings_accept_legacy_positional_form(self):
        timings = StageTimings(0.1, 0.2, 0.3, 0.4, 0.5)
        assert timings.total == pytest.approx(1.5)

    def test_atlas_runs_default_pipeline(self, census_small):
        engine = explorer(census_small)
        assert tuple(s.name for s in engine.pipeline.stages) == (
            CANONICAL_STAGES
        )
