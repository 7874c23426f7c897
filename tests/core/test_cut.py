"""Unit tests for the CUT primitive — Definition 1 and all strategies."""

import sys
import threading

import numpy as np
import pytest

from repro.core.config import (
    AtlasConfig,
    CategoricalCutStrategy,
    NumericCutStrategy,
)
from repro.core.cut import _clean_cut_points, balanced_label_groups, cut
from repro.dataset.column import NumericColumn
from repro.dataset.table import Table
from repro.query.algebra import regions_partition
from repro.query.parser import parse_query
from repro.query.predicate import RangePredicate, SetPredicate
from repro.query.query import ConjunctiveQuery


@pytest.fixture
def numbers() -> Table:
    rng = np.random.default_rng(0)
    return Table.from_dict(
        {"x": rng.uniform(0, 100, 500).tolist()}, name="numbers"
    )


@pytest.fixture
def labelled() -> Table:
    return Table.from_dict(
        {"c": ["a"] * 50 + ["b"] * 30 + ["c"] * 15 + ["d"] * 5},
        name="labelled",
    )


class TestDefinitionContract:
    """CUT must produce disjoint regions whose union is the parent."""

    def test_numeric_partition_contract(self, numbers):
        query = ConjunctiveQuery([RangePredicate("x", 0, 100)])
        result = cut(numbers, query, "x")
        assert result.n_regions == 2
        assert regions_partition(list(result.regions), query, numbers)

    def test_categorical_partition_contract(self, labelled):
        query = ConjunctiveQuery([SetPredicate("c", ["a", "b", "c", "d"])])
        result = cut(labelled, query, "c")
        assert regions_partition(list(result.regions), query, labelled)

    def test_cut_without_predicate_covers_all_rows(self, numbers):
        result = cut(numbers, ConjunctiveQuery(), "x")
        assert result.covers(numbers).sum() == pytest.approx(1.0)

    def test_regions_inherit_other_predicates(self):
        table = Table.from_dict({"x": [1, 2, 3, 4], "c": list("abab")})
        query = parse_query("x: [1, 4]\nc: {'a'}")
        result = cut(table, query, "x")
        for region in result.regions:
            assert region.predicate_on("c").values == frozenset({"a"})

    def test_map_is_based_on_cut_attribute(self, numbers):
        result = cut(numbers, ConjunctiveQuery(), "x")
        assert result.attributes == ("x",)

    def test_n_splits_parameter(self, numbers):
        result = cut(numbers, ConjunctiveQuery(), "x", n_splits=4)
        assert result.n_regions == 4
        # With no parent predicate the union is the full line, so the
        # regions partition the whole (missing-free) table.
        assert regions_partition(
            list(result.regions), ConjunctiveQuery(), numbers
        )
        assert result.covers(numbers).sum() == pytest.approx(1.0)


class TestDegradation:
    def test_constant_column_gives_trivial_map(self):
        table = Table.from_dict({"x": [5.0] * 10})
        result = cut(table, ConjunctiveQuery(), "x")
        assert result.is_trivial

    def test_empty_region_gives_trivial_map(self, numbers):
        query = ConjunctiveQuery([RangePredicate("x", 1000, 2000)])
        assert cut(numbers, query, "x").is_trivial

    def test_single_category_gives_trivial_map(self):
        table = Table.from_dict({"c": ["only"] * 10})
        assert cut(table, ConjunctiveQuery(), "c").is_trivial

    def test_all_missing_gives_trivial_map(self):
        table = Table.from_dict({"x": [None, None, None]})
        assert cut(table, ConjunctiveQuery(), "x").is_trivial

    def test_too_few_splits_rejected(self, numbers):
        from repro.errors import MapError

        with pytest.raises(MapError, match="at least 2"):
            cut(numbers, ConjunctiveQuery(), "x", n_splits=1)


class TestMedianStrategy:
    def test_median_balances_covers(self, numbers):
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.MEDIAN)
        result = cut(numbers, ConjunctiveQuery(), "x", config)
        covers = result.covers(numbers)
        assert abs(covers[0] - covers[1]) < 0.05

    def test_median_cut_point_is_median(self):
        table = Table.from_dict({"x": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]})
        result = cut(table, ConjunctiveQuery(), "x")
        left = result.regions[0].predicate_on("x")
        assert left.high == pytest.approx(5.5)

    def test_skewed_data_still_balanced(self):
        rng = np.random.default_rng(1)
        table = Table.from_dict({"x": rng.lognormal(0, 2, 1000).tolist()})
        result = cut(table, ConjunctiveQuery(), "x")
        covers = result.covers(table)
        assert abs(covers[0] - covers[1]) < 0.05


class TestEquiwidthStrategy:
    def test_cut_at_range_middle(self):
        table = Table.from_dict({"x": [0.0] * 90 + [100.0] * 10})
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.EQUIWIDTH)
        result = cut(table, ConjunctiveQuery(), "x", config)
        left = result.regions[0].predicate_on("x")
        assert left.high == pytest.approx(50.0)
        # Unbalanced covers are exactly what equi-width produces here.
        assert result.covers(table).tolist() == [0.9, 0.1]


class TestTwoMeansStrategy:
    def test_finds_bimodal_gap(self):
        rng = np.random.default_rng(2)
        values = np.concatenate(
            [rng.normal(10, 1, 500), rng.normal(50, 1, 500)]
        )
        table = Table.from_dict({"x": values.tolist()})
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        result = cut(table, ConjunctiveQuery(), "x", config)
        boundary = result.regions[0].predicate_on("x").high
        assert 15 < boundary < 45

    def test_matches_bruteforce_sse(self):
        from repro.baselines.kmeans import exact_two_means_1d

        rng = np.random.default_rng(3)
        values = rng.uniform(0, 10, 200)
        table = Table.from_dict({"x": values.tolist()})
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        result = cut(table, ConjunctiveQuery(), "x", config)
        boundary = result.regions[0].predicate_on("x").high
        brute_cut, __ = exact_two_means_1d(values)
        assert boundary == pytest.approx(brute_cut)

    def test_multiway_lloyd(self):
        rng = np.random.default_rng(4)
        values = np.concatenate(
            [rng.normal(c, 0.5, 300) for c in (0, 10, 20)]
        )
        table = Table.from_dict({"x": values.tolist()})
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        result = cut(table, ConjunctiveQuery(), "x", config, n_splits=3)
        assert result.n_regions == 3
        boundaries = sorted(
            r.predicate_on("x").high
            for r in result.regions
            if r.predicate_on("x").high != float("inf")
        )
        assert 2 < boundaries[0] < 8
        assert 12 < boundaries[1] < 18

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cut_point_at_minus_infinity_is_dropped(self):
        # Two-means on a column holding -inf proposes a point at -inf;
        # the unrestricted left piece is open there, so it must go.
        table = Table.from_dict({"x": [float("-inf"), 1.0, 2.0, 3.0]})
        config = AtlasConfig(numeric_strategy=NumericCutStrategy.TWO_MEANS)
        result = cut(table, ConjunctiveQuery(), "x", config)
        assert all(
            r.predicate_on("x") is None or r.predicate_on("x").high > -np.inf
            for r in result.regions
        )

    def test_nan_cut_point_does_not_unsort_the_rest(self):
        # NaN compares false both ways: sorted among the others it would
        # leave [0.0, -2.5] in place and build an inverted range.
        points = _clean_cut_points([0.0, float("nan"), -2.5], None, -4.0, 4.0)
        assert points == [-2.5, 0.0]


class TestSketchStrategy:
    def test_sketch_approximates_median(self, numbers):
        exact = cut(
            numbers, ConjunctiveQuery(), "x",
            AtlasConfig(numeric_strategy=NumericCutStrategy.MEDIAN),
        )
        approx = cut(
            numbers, ConjunctiveQuery(), "x",
            AtlasConfig(numeric_strategy=NumericCutStrategy.SKETCH),
        )
        exact_point = exact.regions[0].predicate_on("x").high
        approx_point = approx.regions[0].predicate_on("x").high
        assert abs(exact_point - approx_point) < 5.0  # 5% of the range

    def test_exact_fidelity_sketch_explore_is_pinned(self):
        # The sketch strategy cuts at fidelity.epsilon; the exact
        # fidelity's default (0.005) keeps this answer bit-identical.
        from repro.datagen import census_table
        from repro.engine.facade import explorer
        from repro.evaluation import map_set_fingerprint

        answer = (
            explorer(census_table(n_rows=4000, seed=42))
            .configure(numeric_strategy="sketch")
            .explore("Age: [17, 90]")
        )
        assert answer.fidelity == "exact"
        assert map_set_fingerprint(answer) == (
            "5e7f84f2bdc7a789363f72b02720f670f8b9b7951938faf9b72ef7d5b27276b1"
        )


class TestCategoricalStrategies:
    def test_frequency_groups_by_mass(self, labelled):
        config = AtlasConfig(
            categorical_strategy=CategoricalCutStrategy.FREQUENCY
        )
        result = cut(labelled, ConjunctiveQuery(), "c", config)
        covers = result.covers(labelled)
        # 'a' (50%) alone vs the rest (50%) is the balanced frequency split.
        assert covers.tolist() == [0.5, 0.5]

    def test_alphabetic_order(self, labelled):
        config = AtlasConfig(
            categorical_strategy=CategoricalCutStrategy.ALPHABETIC
        )
        result = cut(labelled, ConjunctiveQuery(), "c", config)
        first = result.regions[0].predicate_on("c").values
        # alphabetic blocks are contiguous in a..d order
        assert first in ({"a"}, {"a", "b"})

    def test_user_order_respected(self, labelled):
        query = ConjunctiveQuery([SetPredicate("c", ["d", "c", "b", "a"])])
        config = AtlasConfig(
            categorical_strategy=CategoricalCutStrategy.USER_ORDER
        )
        result = cut(labelled, query, "c", config)
        first = result.regions[0].predicate_on("c").values
        # user listed d first, so the first block starts from 'd'
        assert "d" in first
        assert "a" not in first

    def test_parent_set_restricts_labels(self, labelled):
        query = ConjunctiveQuery([SetPredicate("c", ["a", "b"])])
        result = cut(labelled, query, "c")
        labels = set().union(
            *(r.predicate_on("c").values for r in result.regions)
        )
        assert labels == {"a", "b"}

    def test_many_categories_multiway(self, labelled):
        result = cut(labelled, ConjunctiveQuery(), "c", n_splits=4)
        assert result.n_regions == 4


class TestBalancedLabelGroups:
    def test_partition_property(self):
        groups = balanced_label_groups(
            ["a", "b", "c", "d"], {"a": 10, "b": 10, "c": 10, "d": 10}, 2
        )
        assert [sorted(g) for g in groups] == [["a", "b"], ["c", "d"]]

    def test_all_labels_used_once(self):
        labels = [f"l{i}" for i in range(7)]
        counts = {lab: i + 1 for i, lab in enumerate(labels)}
        groups = balanced_label_groups(labels, counts, 3)
        flattened = [lab for group in groups for lab in group]
        assert sorted(flattened) == sorted(labels)
        assert len(groups) == 3

    def test_more_splits_than_labels_caps(self):
        groups = balanced_label_groups(["a", "b"], {"a": 1, "b": 1}, 5)
        assert len(groups) == 2

    def test_heavy_first_label_gets_own_group(self):
        groups = balanced_label_groups(
            ["big", "s1", "s2"], {"big": 90, "s1": 5, "s2": 5}, 2
        )
        assert groups[0] == ["big"]
        assert groups[1] == ["s1", "s2"]


class TestMissingValues:
    def test_missing_rows_escape_but_split_works(self):
        table = Table.from_dict({"x": [1, 2, 3, 4, None, None]})
        result = cut(table, ConjunctiveQuery(), "x")
        assert result.n_regions == 2
        dist = result.distribution(table)
        assert dist[-1] == pytest.approx(2 / 6)  # escape mass


class TestSortedOrderReuse:
    """A column builds its sorted order on its second median cut."""

    QUERY = ConjunctiveQuery([RangePredicate("x", 0, 100)])

    def test_cut_once_holds_no_order_cut_twice_holds_int32(self, numbers):
        column = numbers.numeric("x")
        first = cut(numbers, self.QUERY, "x")
        assert not isinstance(column._order, np.ndarray)
        second = cut(numbers, self.QUERY, "x")
        assert column._order.dtype == np.int32
        assert len(column._order) == len(column)
        assert first == second

    def test_renamed_column_shares_the_order(self, numbers):
        column = numbers.numeric("x")
        cut(numbers, self.QUERY, "x")
        cut(numbers, self.QUERY, "x")
        assert column.rename("y").sorted_order() is column._order

    def test_stored_column_loads_its_buffer_once(self, numbers):
        values = numbers.numeric("x").data
        loads = []

        def load():
            loads.append(1)
            return values
        table = Table([NumericColumn.stored("x", len(values), load)])
        maps = [cut(table, self.QUERY, "x") for _ in range(3)]
        assert len(loads) == 1
        assert maps[0] == maps[1] == maps[2] == cut(numbers, self.QUERY, "x")

    def test_racing_first_builds_give_equal_maps(self, numbers):
        expected = cut(numbers, self.QUERY, "x", n_splits=3)
        table = Table.from_dict({"x": numbers.numeric("x").data.tolist()})
        results, errors = [], []

        def work():
            try:
                for _ in range(5):
                    results.append(cut(table, self.QUERY, "x", n_splits=3))
            except Exception as error:  # surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [threading.Thread(target=work) for _ in range(8)]
        try:
            for thread in workers:
                thread.start()
        finally:
            for thread in workers:
                thread.join(60.0)
            sys.setswitchinterval(previous)
        assert not errors
        assert not any(thread.is_alive() for thread in workers)
        assert len(results) == 40
        assert all(list(m.regions) == list(expected.regions) for m in results)
        assert table.numeric("x")._order.dtype == np.int32
