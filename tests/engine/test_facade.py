"""The fluent facade: chaining, string queries, batches, sharing."""

import pytest

from repro.core.anticipate import AnticipativeExplorer
from repro.core.config import (
    AtlasConfig,
    Linkage,
    MergeMethod,
    NumericCutStrategy,
)
from repro.datagen import census_table
from repro.engine import Explorer, explorer
from repro.errors import ConfigError
from repro.evaluation.workloads import FIGURE2_QUERY_TEXT, figure2_query
from repro.query.query import ConjunctiveQuery


@pytest.fixture
def builds(monkeypatch):
    """The fidelity spec of every serial backend build from now on."""
    import repro.engine.context as context_module

    specs: list[str] = []
    real = context_module.make_backend

    def counting(table, fidelity, **kwargs):
        specs.append(fidelity.spec())
        return real(table, fidelity, **kwargs)

    monkeypatch.setattr(context_module, "make_backend", counting)
    return specs


class TestFluentConfiguration:
    def test_chaining_accumulates_config(self, census_small):
        built = (
            explorer(census_small)
            .sample(1_000)
            .cut("twomeans")
            .categorical("alphabetic")
            .merge("composition")
            .linkage("average")
            .splits(2)
            .max_maps(5)
            .threshold(0.9)
            .seed(3)
        )
        config = built.config
        assert config.sample_size == 1_000
        assert config.numeric_strategy is NumericCutStrategy.TWO_MEANS
        assert config.merge_method is MergeMethod.COMPOSITION
        assert config.linkage is Linkage.AVERAGE
        assert config.max_maps == 5
        assert config.dependence_threshold == 0.9
        assert config.seed == 3

    def test_methods_return_the_explorer(self, census_small):
        built = explorer(census_small)
        assert built.cut("median") is built

    def test_parallel_sets_workers_over_fixed_shards(self, census_small):
        from repro.core.config import DEFAULT_SHARDS, Parallelism

        built = explorer(census_small).parallel(2)
        assert built.config.parallelism == Parallelism(
            workers=2, shards=DEFAULT_SHARDS
        )
        assert built.parallel("auto", shards=4).config.parallelism == (
            Parallelism(workers="auto", shards=4)
        )
        assert built.serial().config.parallelism == Parallelism.serial()

    def test_configure_rejects_unknown_fields(self, census_small):
        with pytest.raises(ConfigError, match="unknown config fields"):
            explorer(census_small).configure(no_such_knob=1)

    def test_config_change_resets_context(self, census_small):
        built = explorer(census_small)
        before = built.context
        built.seed(99)
        assert built.context is not before

    def test_configure_back_reuses_the_built_context(self, census_small, builds):
        built = explorer(census_small)
        answer = built.explore(figure2_query())
        first, default = built.context, built.config.max_maps
        built.max_maps(3).explore(figure2_query())
        assert builds == ["exact", "exact"]
        assert built.max_maps(default).context is first
        assert built.explore(figure2_query()).maps == answer.maps
        assert builds == ["exact", "exact"]


class TestExplore:
    def test_string_query_matches_parsed_query(self, census_small):
        fluent = explorer(census_small).explore(FIGURE2_QUERY_TEXT)
        classic = explorer(census_small).explore(figure2_query())
        assert fluent.maps == classic.maps
        assert [r.score for r in fluent.ranked] == [
            r.score for r in classic.ranked
        ]

    def test_none_means_whole_table(self, census_small):
        result = explorer(census_small).explore(None)
        assert result.query == ConjunctiveQuery()
        assert len(result) >= 1

    def test_issue_example_shape(self, census_small):
        result = (
            explorer(census_small)
            .sample(2_000)
            .cut("median")
            .explore("Age: [17, 90]")
        )
        assert result.n_rows_used == 2_000
        assert result.best.attributes == ("Age",)


class TestExploreMany:
    QUERIES = [
        None,
        "Age: [17, 90]",
        "Education: {'BSc', 'MSc'}",
        "Age: [17, 90]",  # deliberate repeat (interactive traffic)
    ]

    def test_results_align_with_input_order(self, census_small):
        results = explorer(census_small).explore_many(self.QUERIES)
        assert len(results) == len(self.QUERIES)
        assert results[0].query == ConjunctiveQuery()
        assert results[1].query == results[3].query

    def test_batch_equals_sequential(self, census_small):
        batch = explorer(census_small).explore_many(self.QUERIES)
        for raw, from_batch in zip(self.QUERIES, batch):
            sequential = explorer(census_small).explore(
                Explorer._parse(raw)
            )
            assert from_batch.maps == sequential.maps
            assert [r.score for r in from_batch.ranked] == [
                r.score for r in sequential.ranked
            ]

    def test_batch_equals_sequential_with_sampling(self, census_small):
        config = AtlasConfig(sample_size=900, seed=11)
        batch = explorer(census_small, config).explore_many(self.QUERIES)
        for raw, from_batch in zip(self.QUERIES, batch):
            sequential = explorer(census_small, config).explore(
                Explorer._parse(raw)
            )
            assert from_batch.maps == sequential.maps

    def test_duplicates_served_from_answers(self, census_small):
        built = explorer(census_small)
        results = built.explore_many(self.QUERIES)
        assert results[1] is results[3]

    def test_reuse_answers_off_still_equal(self, census_small):
        built = explorer(census_small)
        results = built.explore_many(self.QUERIES, reuse_answers=False)
        assert results[1] is not results[3]
        assert results[1].maps == results[3].maps

    def test_shared_context_hits_across_queries(self, census_small):
        built = explorer(census_small)
        built.explore_many(
            [None, "Age: [17, 90]"], reuse_answers=False
        )
        hits_after_two = built.context.counters.hits
        assert hits_after_two > 0
        # A repeat of an already-seen query adds hits, not misses.
        misses = built.context.counters.misses
        built.explore_many(["Age: [17, 90]"], reuse_answers=False)
        assert built.context.counters.misses == misses


class TestAdapters:
    def test_session_shares_context(self, census_small):
        built = explorer(census_small)
        session = built.session()
        session.start(figure2_query())
        assert session.explorer.context is built.context
        assert session.current.map_set.maps == built.explore(
            figure2_query()
        ).maps

    def test_anytime_from_facade(self, census_small):
        anytime = explorer(census_small).anytime(initial_size=500)
        result = anytime.run(stability_target=0.99)
        assert result.sample_size >= 500

    # One live table: every wrapper reads the table the explorer's
    # context serves, so an append through any of them reaches all.

    @staticmethod
    def _grown():
        """A 200-row explorer, its session, and a 50-row delta."""
        built = explorer(census_table(n_rows=200, seed=0))
        session = built.session()
        session.start()
        return built, session, census_table(n_rows=50, seed=1)

    def test_session_append_moves_the_explorer_table(self):
        built, session, delta = self._grown()
        session.append(delta)
        assert built.table.n_rows == 250
        assert built.table.version == 1

    def test_configure_after_session_append_keeps_the_rows(self):
        built, session, delta = self._grown()
        session.append(delta)
        answer = built.seed(3).explore()
        assert answer.version == 1
        assert answer.n_rows_used == 250

    def test_anytime_made_before_an_append_answers_the_appended_rows(self):
        built, _, delta = self._grown()
        anytime = built.anytime(initial_size=100)
        built.append(delta)
        result = anytime.run()
        assert result.map_set.version == 1
        assert result.map_set.n_rows_used == 250

    def test_anytime_runs_share_the_explorers_builds(self, census_small, builds):
        built = explorer(census_small)
        built.explore(figure2_query())
        assert builds == ["exact"]
        anytime = built.anytime(figure2_query(), initial_size=500)
        first = anytime.run()
        # The final tick runs on the explorer's own warm context.
        assert first.fidelity == "exact"
        assert builds[0] == "exact" and "exact" not in builds[1:]
        del builds[:]
        second = anytime.run()
        assert builds == []
        assert second.map_set.maps == first.map_set.maps

    def test_anytime_after_session_append_sees_the_rows(self):
        built, session, delta = self._grown()
        session.append(delta)
        result = built.anytime(initial_size=100).run()
        assert result.map_set.version == 1
        assert result.map_set.n_rows_used == 250

    def test_explorer_append_moves_the_session_table(self):
        built, session, delta = self._grown()
        built.append(delta)
        assert session.explorer.table is built.table
        assert session.explorer.table.n_rows == 250

    def test_session_reconfigure_switches_its_explorer(self):
        built, session, _ = self._grown()
        session.reconfigure(fidelity="sketch:100")
        assert built.config.fidelity.spec() == "sketch:100:0.005"
        assert session.explorer is built
        assert session.current.map_set.fidelity == "sketch:100:0.005"

    def test_prefetch_cache_serves_the_post_append_answer(self):
        built, _, delta = self._grown()
        prefetcher = AnticipativeExplorer(built)
        before = prefetcher.explore()
        built.append(delta)
        after = prefetcher.explore()
        assert before.version == 0 and before.n_rows_used == 200
        assert after.version == 1 and after.n_rows_used == 250
        assert prefetcher.stats.misses == 2
