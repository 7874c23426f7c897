"""Unit tests for the ASCII renderer."""

from repro.engine import explorer
from repro.core.cut import cut
from repro.evaluation.workloads import figure2_query
from repro.frontend.render import (
    cover_bar,
    render_breadcrumb,
    render_map,
    render_map_set,
)
from repro.query.query import ConjunctiveQuery


class TestCoverBar:
    def test_full(self):
        bar = cover_bar(1.0, width=10)
        assert bar == "[##########] 100.0%"

    def test_empty(self):
        assert cover_bar(0.0, width=10) == "[..........]   0.0%"

    def test_half(self):
        assert cover_bar(0.5, width=10).count("#") == 5

    def test_clamps(self):
        assert cover_bar(1.7, width=4).count("#") == 4
        assert cover_bar(-0.5, width=4).count("#") == 0


class TestRenderMap:
    def test_without_table(self, census_small):
        result = cut(census_small, ConjunctiveQuery(), "Age")
        text = render_map(result)
        assert "Map: cut:Age" in text
        assert "(0)" in text and "(1)" in text
        assert "%" not in text  # no covers without a table

    def test_with_table_shows_covers(self, census_small):
        result = cut(census_small, ConjunctiveQuery(), "Age")
        text = render_map(result, census_small)
        assert "%" in text
        assert "#" in text

    def test_unrestricted_region_labelled(self, census_small):
        result = cut(census_small, ConjunctiveQuery(), "Age")
        trivial = result.regions[0].relax()
        from repro.core.datamap import DataMap

        text = render_map(DataMap([trivial]))
        assert "(everything)" in text


class TestRenderMapSet:
    def test_ranked_blocks(self, census_small):
        map_set = explorer(census_small).explore(figure2_query())
        text = render_map_set(map_set, census_small)
        assert "--- #1" in text
        assert "entropy=" in text
        assert "ms over" in text

    def test_empty_result(self):
        from repro.dataset.table import Table

        table = Table.from_dict({"flat": [1.0] * 10})
        map_set = explorer(table).explore()
        assert "No maps" in render_map_set(map_set, table)


class TestBreadcrumb:
    def test_root(self):
        assert render_breadcrumb([]) == "(root)"

    def test_indentation(self):
        text = render_breadcrumb(["a", "b"])
        assert text.splitlines() == ["> a", "  > b"]
