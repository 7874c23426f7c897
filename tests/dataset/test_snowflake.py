"""Unit tests for transitive (snowflake) materialization."""

import pytest

from repro.datagen import tpc_catalog
from repro.dataset.catalog import Catalog
from repro.dataset.table import Table


@pytest.fixture(scope="module")
def snowflake_catalog():
    return tpc_catalog(scale=0.01, seed=0, include_lineitems=True)


class TestSnowflakeAround:
    def test_two_hop_join(self, snowflake_catalog):
        wide = snowflake_catalog.snowflake_around("lineitems")
        # first hop: orders attributes arrive
        assert "orders.priority" in wide
        assert "orders.totalprice" in wide
        # second hop: customer attributes arrive through orders
        assert "customers.segment" in wide
        assert "customers.region" in wide

    def test_fk_columns_projected_out(self, snowflake_catalog):
        wide = snowflake_catalog.snowflake_around("lineitems")
        assert "orderkey" not in wide           # lineitems -> orders FK
        assert "orders.custkey" not in wide     # orders -> customers FK

    def test_row_count_preserved(self, snowflake_catalog):
        lineitems = snowflake_catalog.table("lineitems")
        wide = snowflake_catalog.snowflake_around("lineitems")
        assert wide.n_rows == lineitems.n_rows

    def test_sampled(self, snowflake_catalog):
        wide = snowflake_catalog.snowflake_around(
            "lineitems", sample=100, rng=0
        )
        assert wide.n_rows <= 100
        assert "customers.segment" in wide

    def test_max_depth_limits_hops(self, snowflake_catalog):
        shallow = snowflake_catalog.snowflake_around(
            "lineitems", max_depth=1
        )
        assert "orders.priority" in shallow
        assert "customers.segment" not in shallow

    def test_star_is_special_case(self, snowflake_catalog):
        star = snowflake_catalog.star_around("orders")
        snowflake = snowflake_catalog.snowflake_around("orders")
        assert set(star.column_names) <= set(snowflake.column_names) | {
            "custkey"
        }

    def test_explorable_end_to_end(self, snowflake_catalog):
        from repro.engine import explorer

        wide = snowflake_catalog.snowflake_around(
            "lineitems", sample=2000, rng=0
        )
        result = explorer(wide).explore()
        assert len(result) >= 1

    def test_cycle_safe_via_depth_cap(self):
        # a -> b and b -> a: the depth cap must stop the walk
        catalog = Catalog()
        catalog.add_table(
            Table.from_dict({"ka": [1, 2], "kb": [10, 20], "va": [0, 1]},
                            name="a")
        )
        catalog.add_table(
            Table.from_dict({"kb": [10, 20], "ka": [1, 2], "vb": [5, 6]},
                            name="b")
        )
        catalog.add_foreign_key("a", "kb", "b", "kb")
        catalog.add_foreign_key("b", "ka", "a", "ka")
        wide = catalog.snowflake_around("a", max_depth=2)
        assert wide.n_rows == 2
