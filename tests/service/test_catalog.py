"""Catalog: one register verb, every source shape, durable write-through."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.db.connection import SqlConnection
from repro.errors import StoreError
from repro.service.catalog import Catalog
from repro.service.protocol import ProtocolError, UnknownTableError
from repro.service.service import ExplorationService
from repro.service.sources import InMemorySource, StoreSource, TableSource
from repro.store import TableStore


def make_table(name: str = "events") -> Table:
    return Table(
        [
            NumericColumn("hours", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            CategoricalColumn.from_values(
                "title",
                [
                    "disk outage",
                    "network timeout",
                    "disk latency",
                    "all nominal",
                    "disk failure",
                    "cpu spike",
                ],
            ),
        ],
        name=name,
    )


class NamelessSource(TableSource):
    def load(self) -> Table:
        return make_table()

    def describe(self) -> str:
        return "nameless"


class TestRegisterShapes:
    def test_table_positionally_derives_name(self):
        catalog = Catalog()
        assert catalog.register(make_table()) == "events"
        assert catalog.names() == ("events",)

    def test_table_with_explicit_name(self):
        catalog = Catalog()
        assert catalog.register("renamed", make_table()) == "renamed"
        assert catalog.resolve("renamed").n_rows == 6

    def test_generator_spec_mapping(self):
        catalog = Catalog()
        name = catalog.register({"generator": "census", "n_rows": 50})
        assert name == "census"
        assert catalog.resolve("census").n_rows == 50

    def test_table_source_uses_default_name(self):
        catalog = Catalog()
        assert catalog.register(InMemorySource(make_table())) == "events"

    def test_nameless_source_needs_explicit_name(self):
        catalog = Catalog()
        with pytest.raises(ProtocolError, match="no natural name"):
            catalog.register(NamelessSource())
        assert catalog.register("named", NamelessSource()) == "named"

    def test_connection_single_relation(self):
        connection = SqlConnection({"events": make_table()})
        catalog = Catalog()
        assert catalog.register("events", connection) == "events"
        assert catalog.resolve("events").n_rows == 6

    def test_connection_registers_all_relations(self):
        connection = SqlConnection(
            {"a": make_table("a"), "b": make_table("b")}
        )
        catalog = Catalog()
        names = catalog.register(connection)
        assert sorted(names) == ["a", "b"]
        assert catalog.resolve("b").name == "b"

    def test_uninterpretable_source_rejected(self):
        with pytest.raises(ProtocolError, match="cannot interpret"):
            Catalog().register("x", 42)

    def test_no_source_rejected(self):
        with pytest.raises(ProtocolError, match="needs a table source"):
            Catalog().register()


class TestOverwriteAndGenerations:
    def test_duplicate_needs_overwrite(self):
        catalog = Catalog()
        catalog.register(make_table())
        with pytest.raises(ProtocolError, match="already registered"):
            catalog.register(make_table())

    def test_overwrite_bumps_generation(self):
        catalog = Catalog()
        catalog.register(make_table())
        _, first = catalog.resolve_with_generation("events")
        catalog.register(make_table(), overwrite=True)
        _, second = catalog.resolve_with_generation("events")
        assert second == first + 1

    def test_lock_free_lookups_see_whole_pairs_under_churn(self):
        """Readers never take the lock, yet each ``(table, generation)``
        they see is one that was published: the generation never goes
        back, nor the version within one generation."""
        catalog = Catalog()
        catalog.register(make_table())
        rows = {"hours": [7.0], "title": ["disk outage"]}
        stop = threading.Event()
        errors: list[str] = []

        def read() -> None:
            last = (0, -1)
            while not stop.is_set():
                served = catalog.lookup("events")
                if served is None:
                    errors.append("a registered table was unpublished")
                    return
                seen = (served[1], served[0].version)
                if seen < last:
                    errors.append(f"saw {seen} after {last}")
                last = seen

        def write(_: int) -> None:
            for _ in range(5):
                for _ in range(20):
                    catalog.append("events", rows, lambda new_table: None)
                catalog.register(make_table(), overwrite=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(write, range(4)))
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert catalog.lookup("events")[1] == 21

    def test_resolve_caches_identity(self):
        catalog = Catalog()
        catalog.register({"generator": "census", "n_rows": 40})
        assert catalog.resolve("census") is catalog.resolve("census")

    def test_unknown_table_lists_known(self):
        catalog = Catalog()
        catalog.register(make_table())
        with pytest.raises(UnknownTableError, match="events"):
            catalog.resolve("ghost")


class TestPersistence:
    def test_persist_without_store_is_store_error(self):
        with pytest.raises(StoreError, match="no store"):
            Catalog().register(make_table(), persist=True)

    def test_persist_writes_through(self, tmp_path):
        with TableStore(str(tmp_path / "atlas.db")) as store:
            catalog = Catalog(store=store)
            catalog.register(make_table(), persist=True)
            assert catalog.is_persisted("events")
            assert store.has_table("events")
            loaded = store.load_table("events")
            np.testing.assert_array_equal(
                loaded.numeric("hours").data,
                catalog.resolve("events").numeric("hours").data,
            )

    def test_persist_renames_to_served_name(self, tmp_path):
        with TableStore(str(tmp_path / "atlas.db")) as store:
            catalog = Catalog(store=store)
            catalog.register("served", make_table(), persist=True)
            assert store.table_names() == ["served"]
            assert catalog.resolve("served").name == "served"

    def test_append_journals_when_persisted(self, tmp_path):
        with TableStore(str(tmp_path / "atlas.db")) as store:
            catalog = Catalog(store=store)
            catalog.register(make_table(), persist=True)
            swaps = []
            old, new = catalog.append(
                "events",
                {"hours": [9.0], "title": ["late arrival"]},
                swaps.append,
            )
            assert new.version == old.version + 1
            assert swaps == [new]
            assert store.describe("events")["appends"] == 1
            assert store.load_table("events").n_rows == 7

    def test_unpersisted_append_stays_in_memory(self, tmp_path):
        with TableStore(str(tmp_path / "atlas.db")) as store:
            catalog = Catalog(store=store)
            catalog.register(make_table())
            catalog.append(
                "events",
                {"hours": [9.0], "title": ["late"]},
                lambda t: None,
            )
            assert not store.has_table("events")

    def test_reopened_catalog_preregisters_store_sources(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        with TableStore(path) as store:
            Catalog(store=store).register(make_table(), persist=True)
        with TableStore(path) as store:
            catalog = Catalog(store=store)
            assert catalog.names() == ("events",)
            assert catalog.is_persisted("events")
            assert "store (" in catalog.describe()["events"]
            assert catalog.resolve("events").n_rows == 6

    def test_store_source_is_already_durable(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        with TableStore(path) as store:
            Catalog(store=store).register(make_table(), persist=True)
        with TableStore(path) as store:
            catalog = Catalog()  # a different, store-less catalog
            source = StoreSource(store, "events")
            # Not *its* store, so persist must refuse...
            with pytest.raises(StoreError, match="no store"):
                catalog.register(source, persist=True)
            # ...while the owning catalog just marks it.
            owning = Catalog(store=store)
            owning.register(source, overwrite=True, persist=True)
            assert owning.is_persisted("events")


class TestServiceIntegration:
    def test_register_shims_are_removed(self):
        with ExplorationService(max_workers=1) as service:
            for verb in ("register_table", "register_spec",
                         "register_connection"):
                assert not hasattr(service, verb)
            assert service.register(make_table()) == "events"

    def test_register_spec_shim(self):
        spec = {"generator": "census", "n_rows": 30, "name": "c30"}
        with ExplorationService(max_workers=1) as service:
            assert not hasattr(service, "register_spec")
            assert service.register(spec) == "c30"
            assert service.explore("c30").map_set.n_rows_used == 30

    def test_register_connection_shim(self):
        connection = SqlConnection(
            {"a": make_table("a"), "b": make_table("b")}
        )
        with ExplorationService(max_workers=1) as service:
            assert not hasattr(service, "register_connection")
            assert sorted(service.register(connection)) == ["a", "b"]

    def test_service_warm_restart_counts_and_answers(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        query = "hours: [1, 5]\ntitle: contains 'disk'"
        config = {"fidelity": "sketch:4", "seed": 1}
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(make_table(), persist=True)
            cold = service.explore("events", query, config=config)
            assert (
                service.metrics()["requests"]["summaries_persisted"] == 1
            )
        with ExplorationService(max_workers=1, store=path) as again:
            warm = again.explore("events", query, config=config)
            assert again.metrics()["requests"]["warm_starts"] == 1
            assert warm.map_set.maps == cold.map_set.maps

    def test_racing_cold_explores_count_one_warm_start(
        self, tmp_path, monkeypatch
    ):
        """Two requests race to a cold context on a restarted store.

        Both get a restore factory (the barrier holds each until the
        other has one), but only the backend one of them installs is a
        warm start; the loser adopts the winner's backend.
        """
        path = str(tmp_path / "atlas.db")
        config = {"fidelity": "sketch:4", "seed": 1}
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(make_table(), persist=True)
            cold = service.explore("events", config=config)
        with ExplorationService(max_workers=2, store=path) as again:
            catalog = again.catalog
            barrier = threading.Barrier(2, timeout=10)
            real_factory = catalog.warm_factory

            def warm_factory(*args):
                factory = real_factory(*args)
                barrier.wait()
                return factory

            monkeypatch.setattr(catalog, "warm_factory", warm_factory)
            with ThreadPoolExecutor(max_workers=2) as pool:
                answers = list(pool.map(
                    lambda _: again.explore(
                        "events", config=config, use_cache=False
                    ),
                    range(2),
                ))
            assert again.metrics()["requests"]["warm_starts"] == 1
            assert all(a.map_set.maps == cold.map_set.maps for a in answers)

    def test_warm_start_reads_the_summary_payload_exactly_once(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        config = {"fidelity": "sketch:4", "seed": 1}
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(make_table(), persist=True)
            service.explore("events", config=config)
        statements: list[str] = []
        with TableStore(path) as store:
            store._conn.set_trace_callback(statements.append)
            with ExplorationService(max_workers=1, store=store) as again:
                again.explore("events", config=config)
                assert again.metrics()["requests"]["warm_starts"] == 1
                assert again.metrics()["requests"]["summaries_persisted"] == 0
        payload_reads = [s for s in statements if "SELECT payload" in s]
        assert len(payload_reads) == 1
        assert "FROM summaries" in payload_reads[0]

    def test_persist_summary_on_a_stored_key_reads_no_payload(self, tmp_path):
        from repro.core.config import AtlasConfig
        from repro.engine.context import ExecutionContext

        config = AtlasConfig.from_dict({"fidelity": "sketch:4", "seed": 1})
        with TableStore(str(tmp_path / "atlas.db")) as store:
            catalog = Catalog(store=store)
            catalog.register(make_table(), persist=True)
            table = catalog.resolve("events")
            backend = ExecutionContext(table, config).stats()
            assert catalog.persist_summary("events", table, backend, config)
            statements: list[str] = []
            store._conn.set_trace_callback(statements.append)
            assert not catalog.persist_summary(
                "events", table, backend, config
            )
            assert statements and not any(
                "payload" in statement for statement in statements
            )

    def test_text_predicate_rides_every_region(self):
        with ExplorationService(max_workers=1) as service:
            service.register(make_table())
            response = service.explore(
                "events", "hours: [1, 6]\ntitle: contains 'disk'"
            )
            assert len(response.map_set) >= 1
            table = make_table()
            scope_mask = None
            for data_map in response.map_set.maps:
                for region in data_map.regions:
                    # Every region stays inside the text scope: its rows
                    # are a subset of the contains-'disk' rows.
                    from repro.query.predicate import ContainsPredicate

                    if scope_mask is None:
                        scope_mask = ContainsPredicate(
                            "title", "disk"
                        ).mask(table)
                    region_mask = region.mask(table)
                    assert (region_mask & ~scope_mask).sum() == 0
