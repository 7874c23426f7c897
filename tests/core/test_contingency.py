"""Unit tests for joint contingency tables between maps."""

import numpy as np
import pytest

from repro.core.contingency import (
    joint_counts,
    joint_distribution,
    joint_distribution_from_assignments,
)
from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.errors import MapError
from repro.query.predicate import RangePredicate, SetPredicate
from repro.query.query import ConjunctiveQuery


class TestJointCounts:
    def test_basic_cross_tab(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        counts = joint_counts(a, b, 2, 2)
        assert counts.shape == (3, 3)
        assert counts[:2, :2].tolist() == [[1, 1], [1, 1]]
        assert counts.sum() == 4

    def test_escape_goes_to_last_cell(self):
        a = np.array([0, -1])
        b = np.array([-1, 1])
        counts = joint_counts(a, b, 1, 2)
        assert counts[0, 2] == 1  # region0 x escape
        assert counts[1, 1] == 1  # escape x region1

    def test_length_mismatch_rejected(self):
        with pytest.raises(MapError, match="mismatch"):
            joint_counts(np.array([0]), np.array([0, 1]), 1, 2)

    def test_int8_assignments_past_127_cells_match_int64(self):
        # 16 x 16 = 256 cells: an int8 cell index would wrap.
        rng = np.random.default_rng(7)
        a = rng.integers(-1, 15, size=5000)
        b = rng.integers(-1, 15, size=5000)
        wide = joint_counts(a.astype(np.int64), b.astype(np.int64), 15, 15)
        narrow = joint_counts(a.astype(np.int8), b.astype(np.int8), 15, 15)
        np.testing.assert_array_equal(narrow, wide)
        assert narrow[15, 15] == np.count_nonzero((a < 0) & (b < 0))


class TestJointDistribution:
    def test_from_maps(self):
        table = Table.from_dict({"x": [1, 2, 3, 4], "c": list("abab")})
        map_x = DataMap(
            [
                ConjunctiveQuery([RangePredicate("x", 1, 2)]),
                ConjunctiveQuery([RangePredicate("x", 3, 4)]),
            ]
        )
        map_c = DataMap(
            [
                ConjunctiveQuery([SetPredicate("c", ["a"])]),
                ConjunctiveQuery([SetPredicate("c", ["b"])]),
            ]
        )
        joint = joint_distribution(map_x, map_c, table)
        assert joint.sum() == pytest.approx(1.0)
        # x in {1,2} splits evenly over c=a (row 1) and c=b (row 2)
        assert joint[0, 0] == pytest.approx(0.25)
        assert joint[0, 1] == pytest.approx(0.25)

    def test_empty_table_rejected(self):
        table = Table.from_dict({"x": []})
        m = DataMap([ConjunctiveQuery([RangePredicate("x", 0, 1)])])
        with pytest.raises(MapError, match="empty"):
            joint_distribution(m, m, table)

    def test_from_assignments_normalizes(self):
        a = np.array([0, 1, 0, 1])
        joint = joint_distribution_from_assignments(a, a, 2, 2)
        assert joint.sum() == pytest.approx(1.0)
        assert joint[0, 1] == 0.0  # identical assignments are diagonal
