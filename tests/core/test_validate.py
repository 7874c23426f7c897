"""Unit tests for map-contract validation."""

import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.core.datamap import DataMap
from repro.core.validate import validate_map, validate_map_set
from repro.dataset.table import Table
from repro.evaluation.workloads import figure2_query
from repro.query.predicate import RangePredicate
from repro.query.query import ConjunctiveQuery


@pytest.fixture
def table() -> Table:
    return Table.from_dict({"x": list(range(1, 11))})


def _region(low, high, closed_low=True) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        [RangePredicate("x", low, high, closed_low=closed_low)]
    )


class TestValidateMap:
    def test_clean_partition_passes(self, table):
        good = DataMap(
            [_region(1, 5), _region(5, 10, closed_low=False)]
        )
        report = validate_map(good, table)
        assert report.ok
        assert "all contracts hold" in report.describe()

    def test_overlap_detected(self, table):
        overlapping = DataMap([_region(1, 6), _region(5, 10)])
        report = validate_map(overlapping, table)
        assert not report.ok
        assert any(v.rule == "disjointness" for v in report.violations)

    def test_gap_detected(self, table):
        gappy = DataMap([_region(1, 3), _region(7, 10)])
        report = validate_map(gappy, table)
        assert any(v.rule == "coverage" for v in report.violations)

    def test_gap_allowed_without_partition_requirement(self, table):
        gappy = DataMap([_region(1, 3), _region(7, 10)])
        report = validate_map(gappy, table, require_partition=False)
        assert report.ok

    def test_empty_region_detected(self, table):
        with_empty = DataMap([_region(1, 10), _region(100, 200)])
        report = validate_map(with_empty, table, require_partition=False)
        assert any(v.rule == "non_empty" for v in report.violations)

    def test_containment_detected(self, table):
        parent = _region(1, 5)
        escaping = DataMap([_region(1, 10)])
        report = validate_map(
            escaping, table, parent=parent, require_partition=False
        )
        assert any(v.rule == "containment" for v in report.violations)

    def test_region_cap_detected(self, table):
        config = AtlasConfig(max_regions=2, n_splits=2)
        too_many = DataMap(
            [_region(1, 3), _region(3, 6, closed_low=False),
             _region(6, 10, closed_low=False)]
        )
        report = validate_map(too_many, table, config=config)
        assert any(v.rule == "max_regions" for v in report.violations)

    def test_attribute_cap_detected(self, table):
        config = AtlasConfig(max_predicates=1)
        wide = DataMap(
            [_region(1, 10)], attributes=["x", "y"], label="wide"
        )
        report = validate_map(
            wide, table, config=config, require_partition=False
        )
        assert any(v.rule == "max_predicates" for v in report.violations)

    def test_describe_lists_violations(self, table):
        overlapping = DataMap([_region(1, 6), _region(5, 10)])
        text = validate_map(overlapping, table).describe()
        assert "violation" in text
        assert "disjointness" in text


class TestPipelineOutputValidates:
    def test_every_atlas_map_passes(self, census_small):
        result = explorer(census_small).explore(figure2_query())
        reports = validate_map_set(
            list(result.maps),
            census_small,
            parent=figure2_query(),
            require_partition=False,  # escapes possible on missing cells
        )
        for report in reports:
            assert report.ok, report.describe()
