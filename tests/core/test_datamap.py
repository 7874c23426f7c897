"""Unit tests for the DataMap structure and its underlying variable."""

import numpy as np
import pytest

from repro.core.datamap import ESCAPE, DataMap
from repro.dataset.table import Table
from repro.errors import MapError
from repro.query.predicate import RangePredicate, SetPredicate
from repro.query.query import ConjunctiveQuery


def _region(low, high) -> ConjunctiveQuery:
    return ConjunctiveQuery([RangePredicate("x", low, high)])


@pytest.fixture
def table() -> Table:
    return Table.from_dict({"x": [1, 2, 3, 4, 5, 6], "c": list("aabbcc")})


@pytest.fixture
def half_map() -> DataMap:
    return DataMap(
        [_region(1, 3), ConjunctiveQuery(
            [RangePredicate("x", 3, 6, closed_low=False)]
        )]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(MapError, match="at least one region"):
            DataMap([])

    def test_attributes_default_to_union(self):
        regions = [
            ConjunctiveQuery([RangePredicate("x", 0, 1)]),
            ConjunctiveQuery([SetPredicate("c", ["a"])]),
        ]
        assert DataMap(regions).attributes == ("x", "c")

    def test_label_defaults_to_attributes(self, half_map):
        assert half_map.label == "x"

    def test_relabel(self, half_map):
        assert half_map.relabel("mine").label == "mine"

    def test_trivial(self):
        assert DataMap([_region(0, 9)]).is_trivial

    def test_equality_ignores_region_order(self):
        a = DataMap([_region(0, 1), _region(2, 3)])
        b = DataMap([_region(2, 3), _region(0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_max_predicates(self):
        regions = [
            ConjunctiveQuery(
                [RangePredicate("x", 0, 1), SetPredicate("c", ["a"])]
            ),
            _region(2, 3),
        ]
        assert DataMap(regions).max_predicates == 2


class TestAssignment:
    def test_assign_partition(self, half_map, table):
        assignment = half_map.assign(table)
        assert assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_assign_with_escape(self, table):
        partial = DataMap([_region(1, 2)])
        assignment = partial.assign(table)
        assert assignment.tolist() == [0, 0, ESCAPE, ESCAPE, ESCAPE, ESCAPE]

    def test_overlapping_regions_first_wins(self, table):
        overlapping = DataMap([_region(1, 4), _region(3, 6)])
        assignment = overlapping.assign(table)
        assert assignment.tolist() == [0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize(
        ("n_regions", "dtype"),
        [(2, np.int8), (126, np.int8), (127, np.int64), (200, np.int64)],
    )
    def test_assignment_dtype_follows_region_count(self, n_regions, dtype):
        wide = Table.from_dict({"x": list(range(n_regions))})
        # Closed pieces [i, i] with gaps between them: the mask loop.
        loop = DataMap([_region(i, i) for i in range(n_regions)])
        # Contiguous pieces (i - 1, i]: the one-pass grid.
        grid = DataMap([
            ConjunctiveQuery([RangePredicate("x", i - 1, i, closed_low=False)])
            for i in range(n_regions)
        ])
        for data_map in (loop, grid):
            assignment = data_map.assign(wide)
            assert assignment.dtype == dtype
            assert assignment.tolist() == list(range(n_regions))

    def test_covers(self, half_map, table):
        assert half_map.covers(table).tolist() == [0.5, 0.5]

    def test_covers_empty_table(self, half_map):
        empty = Table.from_dict({"x": [], "c": []})
        assert half_map.covers(empty).tolist() == [0.0, 0.0]

    def test_distribution_includes_escape(self, table):
        partial = DataMap([_region(1, 3)])
        dist = partial.distribution(table)
        assert dist.tolist() == [0.5, 0.5]  # region 0, escape
        assert dist.sum() == pytest.approx(1.0)

    def test_distribution_empty_table_rejected(self, half_map):
        empty = Table.from_dict({"x": [], "c": []})
        with pytest.raises(MapError):
            half_map.distribution(empty)


class TestTransforms:
    def test_drop_empty_regions(self, table):
        with_empty = DataMap([_region(1, 3), _region(100, 200), _region(4, 6)])
        cleaned = with_empty.drop_empty_regions(table)
        assert cleaned.n_regions == 2

    def test_drop_with_min_cover(self, table):
        biased = DataMap([_region(1, 5), _region(6, 6)])
        cleaned = biased.drop_empty_regions(table, min_cover=0.2)
        assert cleaned.n_regions == 1

    def test_drop_never_empties_map(self, table):
        hopeless = DataMap([_region(100, 200), _region(300, 400)])
        assert hopeless.drop_empty_regions(table).n_regions == 1

    def test_describe_mentions_regions(self, half_map):
        text = half_map.describe()
        assert "Region 0" in text and "Region 1" in text
