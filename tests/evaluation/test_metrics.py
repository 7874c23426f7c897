"""Unit tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.errors import AtlasError
from repro.evaluation.metrics import (
    adjusted_rand_index,
    attribute_recall,
    best_map_recovery,
    map_recovery,
    purity,
    region_balance,
    split_sse,
)
from repro.query.predicate import RangePredicate
from repro.query.query import ConjunctiveQuery


class TestAdjustedRandIndex:
    def test_identical_is_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_relabeled_identical_is_one(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([5, 5, 2, 2])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, 3000)
        b = rng.integers(0, 3, 3000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_negative_labels_are_a_class(self):
        a = np.array([-1, -1, 0, 0])
        b = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_single_cluster_each(self):
        a = np.zeros(10)
        b = np.zeros(10)
        assert adjusted_rand_index(a, b) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(AtlasError):
            adjusted_rand_index(np.array([0]), np.array([0, 1]))

    def test_empty_rejected(self):
        with pytest.raises(AtlasError):
            adjusted_rand_index(np.array([]), np.array([]))


class TestAssignmentDtypes:
    """Map assignments are int8 below 127 regions; scores must not care."""

    @pytest.fixture
    def labelings(self):
        rng = np.random.default_rng(3)
        return rng.integers(-1, 40, size=3000), rng.integers(0, 5, size=3000)

    def test_ari_agrees_on_int8_and_int64(self, labelings):
        assignment, planted = labelings
        assert adjusted_rand_index(
            assignment.astype(np.int8), planted
        ) == adjusted_rand_index(assignment.astype(np.int64), planted)

    def test_purity_agrees_on_int8_and_int64(self, labelings):
        assignment, planted = labelings
        assert purity(assignment.astype(np.int8), planted) == purity(
            assignment.astype(np.int64), planted
        )


class TestMapRecovery:
    def _table_and_labels(self):
        values = [1, 2, 3, 11, 12, 13]
        table = Table.from_dict({"x": values})
        labels = np.array([0, 0, 0, 1, 1, 1])
        return table, labels

    def test_perfect_recovery(self):
        table, labels = self._table_and_labels()
        good = DataMap(
            [
                ConjunctiveQuery([RangePredicate("x", 0, 5)]),
                ConjunctiveQuery([RangePredicate("x", 10, 15)]),
            ]
        )
        assert map_recovery(good, table, labels) == pytest.approx(1.0)

    def test_bad_recovery(self):
        table, labels = self._table_and_labels()
        bad = DataMap(
            [
                ConjunctiveQuery([RangePredicate("x", 0, 2)]),
                ConjunctiveQuery([RangePredicate("x", 2, 15, closed_low=False)]),
            ]
        )
        assert map_recovery(bad, table, labels) < 0.5

    def test_best_map_recovery_picks_best(self):
        table, labels = self._table_and_labels()
        good = DataMap(
            [
                ConjunctiveQuery([RangePredicate("x", 0, 5)]),
                ConjunctiveQuery([RangePredicate("x", 10, 15)]),
            ]
        )
        bad = DataMap([ConjunctiveQuery([RangePredicate("x", 0, 100)])])
        assert best_map_recovery([bad, good], table, labels) == pytest.approx(1.0)
        assert best_map_recovery([bad, good], table, labels, top_k=1) < 1.0

    def test_empty_map_list(self):
        table, labels = self._table_and_labels()
        assert best_map_recovery([], table, labels) == 0.0


class TestAttributeRecall:
    def test_exact_attribute_set(self):
        m = DataMap(
            [ConjunctiveQuery([RangePredicate("x", 0, 1)])],
            attributes=["x", "y"],
        )
        assert attribute_recall([m], ["y", "x"])
        assert not attribute_recall([m], ["x"])
        assert not attribute_recall([m], ["x", "z"])

    def test_top_k_limits(self):
        a = DataMap(
            [ConjunctiveQuery([RangePredicate("x", 0, 1)])], attributes=["x"]
        )
        b = DataMap(
            [ConjunctiveQuery([RangePredicate("y", 0, 1)])], attributes=["y"]
        )
        assert attribute_recall([a, b], ["y"])
        assert not attribute_recall([a, b], ["y"], top_k=1)


class TestSplitSse:
    def test_perfect_split_zero_sse(self):
        values = np.array([1.0, 1.0, 9.0, 9.0])
        assert split_sse(values, [5.0]) == pytest.approx(0.0)

    def test_bad_split_positive_sse(self):
        values = np.array([1.0, 1.0, 9.0, 9.0])
        assert split_sse(values, [0.5]) > 10.0

    def test_nan_ignored(self):
        values = np.array([1.0, np.nan, 9.0])
        assert split_sse(values, [5.0]) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(AtlasError):
            split_sse(np.array([np.nan]), [0.0])


class TestRegionBalance:
    def test_even(self):
        assert region_balance([0.5, 0.5]) == 1.0

    def test_uneven(self):
        assert region_balance([0.9, 0.1]) == pytest.approx(9.0)

    def test_zero_covers_ignored(self):
        assert region_balance([0.5, 0.0, 0.5]) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(AtlasError):
            region_balance([0.0])
