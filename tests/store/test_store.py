"""TableStore: registration, append log, replay, summaries, search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.datagen import census_table
from repro.errors import AppendConflictError, StoreError
from repro.query.predicate import ContainsPredicate, MatchPredicate
from repro.service import ExplorationService
from repro.service.protocol import error_from_payload, error_to_dict
from repro.store import TableStore
from repro.store import codec as codec_module
from repro.store.codec import column_row, stored_column


def make_table(name: str = "events") -> Table:
    return Table(
        [
            NumericColumn("hours", [1.0, 2.0, 3.0, 4.0]),
            CategoricalColumn.from_values(
                "title",
                [
                    "disk outage",
                    "network timeout",
                    "disk latency",
                    "all nominal",
                ],
            ),
        ],
        name=name,
    )


@pytest.fixture
def store(tmp_path) -> TableStore:
    with TableStore(str(tmp_path / "atlas.db")) as store:
        yield store


class TestRegistration:
    def test_register_and_load_round_trip(self, store):
        table = make_table()
        store.register_table(table)
        assert store.table_names() == ["events"]
        assert store.has_table("events")
        loaded = store.load_table("events")
        assert loaded.name == "events"
        assert loaded.version == table.version
        np.testing.assert_array_equal(
            loaded.numeric("hours").data, table.numeric("hours").data
        )
        assert (
            loaded.categorical("title").categories
            == table.categorical("title").categories
        )

    def test_duplicate_registration_needs_overwrite(self, store):
        store.register_table(make_table())
        with pytest.raises(StoreError, match="already"):
            store.register_table(make_table())
        store.register_table(make_table(), overwrite=True)
        assert store.table_names() == ["events"]

    def test_delete_table(self, store):
        store.register_table(make_table())
        store.delete_table("events")
        assert store.table_names() == []
        with pytest.raises(StoreError):
            store.load_table("events")

    def test_describe(self, store):
        store.register_table(make_table())
        description = store.describe("events")
        assert description["name"] == "events"
        assert description["n_rows"] == 4
        assert description["version"] == 0
        assert description["appends"] == 0
        assert description["summaries"] == 0
        assert [c["name"] for c in description["schema"]] == [
            "hours",
            "title",
        ]

    def test_unknown_table_is_typed_error(self, store):
        with pytest.raises(StoreError, match="unknown"):
            store.describe("ghost")


class TestDecode:
    def test_decoded_arrays_are_readonly_and_detached_from_the_blob(self):
        for column in make_table().columns:
            name, kind, blob, labels, n_labels, lengths, checksum = column_row(column)
            buffer = bytearray(blob)  # a blob we can scribble on afterwards
            decoded = stored_column(
                name, kind, len(column), len(blob), n_labels, "a test row",
                lambda: bytes(buffer), lambda: (labels, lengths, checksum),
            )
            array = getattr(decoded, "data", None)
            if array is None:
                array = decoded.codes
            assert not array.flags.writeable
            before = array.copy()
            buffer[:] = bytes(len(buffer))
            np.testing.assert_array_equal(array, before)

    def test_buffers_decode_outside_the_lock(self, store, monkeypatch):
        """``load_table`` builds columns from metadata; their buffers are
        checked on first use, with the store's lock released."""
        store.register_table(make_table())
        held = []

        def spying(module, name):
            real = getattr(module, name)

            def spy(*args):
                held.append((name, store._lock.locked()))
                return real(*args)

            monkeypatch.setattr(module, name, spy)

        spying(codec_module, "check_codes")
        spying(codec_module, "stored_text")
        table = store.load_table("events")
        assert table.n_rows == 4 and held == []
        assert table.categorical("title").decode()[0] == "disk outage"
        assert sorted(held) == [("check_codes", False), ("stored_text", False)]


class TestAppendLog:
    def append_delta(self, table: Table) -> tuple[Table, Table]:
        delta = table.coerce_delta(
            {"hours": [9.0], "title": ["disk failure"]}
        )
        return delta, table.append(delta)

    def test_append_replays_to_identical_table(self, store):
        table = make_table()
        store.register_table(table)
        delta, new_table = self.append_delta(table)
        applied = store.append(
            "events", delta, from_version=0, to_version=1
        )
        assert applied is True
        loaded = store.load_table("events")
        assert loaded.version == 1
        assert loaded.n_rows == 5
        np.testing.assert_array_equal(
            loaded.numeric("hours").data,
            new_table.numeric("hours").data,
        )
        assert (
            loaded.categorical("title").categories
            == new_table.categorical("title").categories
        )

    def test_replay_of_logged_pair_is_noop(self, store):
        table = make_table()
        store.register_table(table)
        delta, _ = self.append_delta(table)
        assert store.append("events", delta, from_version=0, to_version=1)
        # A client retrying through a crash re-issues the same pair.
        assert (
            store.append("events", delta, from_version=0, to_version=1)
            is False
        )
        assert store.load_table("events").n_rows == 5
        assert store.describe("events")["appends"] == 1

    def test_gap_is_rejected(self, store):
        table = make_table()
        store.register_table(table)
        delta, _ = self.append_delta(table)
        with pytest.raises(StoreError, match="ends at"):
            store.append("events", delta, from_version=3, to_version=4)

    def test_conflicting_history_is_rejected(self, store):
        table = make_table()
        store.register_table(table)
        delta, _ = self.append_delta(table)
        store.append("events", delta, from_version=0, to_version=1)
        with pytest.raises(StoreError, match="one version at a time"):
            store.append("events", delta, from_version=0, to_version=2)

    def test_same_pair_with_another_delta_is_a_conflict(self, store):
        table = make_table()
        store.register_table(table)
        delta, _ = self.append_delta(table)
        store.append("events", delta, from_version=0, to_version=1)
        other = table.coerce_delta({"hours": [9.0], "title": ["disk fire"]})
        with pytest.raises(AppendConflictError) as raised:
            store.append("events", other, from_version=0, to_version=1)
        message = str(raised.value)
        assert "'events'" in message and "0->1" in message
        assert "current version 1" in message
        assert store.load_table("events").categorical("title").categories[-1] == (
            "disk failure"
        )
        assert store.describe("events")["appends"] == 1

    def test_conflict_is_a_409_on_the_wire(self):
        payload = error_to_dict(AppendConflictError("append 0->1 on 'x'"))
        assert payload["error"]["status"] == 409
        assert payload["error"]["code"] == "append_conflict"
        assert isinstance(error_from_payload(payload, 409), AppendConflictError)

    def test_multi_append_replay_order(self, store):
        table = make_table()
        store.register_table(table)
        for version in range(3):
            delta = table.coerce_delta(
                {"hours": [10.0 + version], "title": [f"event {version}"]}
            )
            table = table.append(delta)
            store.append(
                "events",
                delta,
                from_version=version,
                to_version=version + 1,
            )
        loaded = store.load_table("events")
        assert loaded.version == 3
        np.testing.assert_array_equal(
            loaded.numeric("hours").data, table.numeric("hours").data
        )


class TestSummaries:
    def test_put_get_round_trip(self, store):
        store.register_table(make_table())
        payload = {"kind": "sketch-summary", "version": 0}
        store.put_summary("events", 0, "sketch:100|seed=0", payload)
        assert store.get_summary("events", 0, "sketch:100|seed=0") == payload
        assert store.get_summary("events", 1, "sketch:100|seed=0") is None
        assert store.summary_keys("events") == [(0, "sketch:100|seed=0")]

    def test_has_summary_answers_without_reading_the_payload(self, store):
        store.register_table(make_table())
        store.put_summary("events", 0, "k", {"generation": 1})
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        assert store.has_summary("events", 0, "k")
        assert not store.has_summary("events", 1, "k")
        assert not store.has_summary("events", 0, "other")
        store._conn.set_trace_callback(None)
        assert len(statements) == 3
        assert not any("payload" in statement for statement in statements)

    def test_summary_needs_registered_table(self, store):
        with pytest.raises(StoreError, match="unregistered"):
            store.put_summary("ghost", 0, "k", {})

    def test_upsert_replaces(self, store):
        store.register_table(make_table())
        store.put_summary("events", 0, "k", {"generation": 1})
        store.put_summary("events", 0, "k", {"generation": 2})
        assert store.get_summary("events", 0, "k") == {"generation": 2}
        assert len(store.summary_keys("events")) == 1


class TestSearch:
    @pytest.fixture
    def indexed(self, store) -> TableStore:
        store.register_table(make_table())
        return store

    def test_match_mode(self, indexed):
        assert indexed.search("events", "title", "disk") == [
            "disk latency",
            "disk outage",
        ]

    def test_contains_mode(self, indexed):
        assert indexed.search(
            "events", "title", "time", mode="contains"
        ) == ["network timeout"]

    def test_search_agrees_with_the_predicate_over_appended_versions(self, indexed):
        table = indexed.load_table("events")
        for titles in (["DISK meltdown", "Straße timeout"], ["ΟΔΟΣ disk-error", "x"]):
            delta = table.coerce_delta({"hours": [5.0] * 2, "title": titles})
            indexed.append(
                "events", delta, from_version=table.version, to_version=table.version + 1
            )
            table = table.append(delta)
        title = table.categorical("title")
        predicates = {"match": MatchPredicate, "contains": ContainsPredicate}
        for text in ("disk", "timeout", "straße", "disk error", "e", "οδος"):
            for mode in ("match", "contains")[text == "οδος":]:  # no token in it
                admitted = predicates[mode]("title", text).admitted(title.dictionary)
                expected = sorted(np.asarray(title.categories)[admitted])
                assert indexed.search("events", "title", text, mode=mode) == expected

    def test_appended_labels_are_searchable(self, indexed):
        table = indexed.load_table("events")
        delta = table.coerce_delta(
            {"hours": [5.0], "title": ["disk meltdown"]}
        )
        indexed.append("events", delta, from_version=0, to_version=1)
        assert "disk meltdown" in indexed.search("events", "title", "disk")


class TestLifecycle:
    def test_reopen_sees_everything(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        table = make_table()
        with TableStore(path) as store:
            store.register_table(table)
            delta = table.coerce_delta(
                {"hours": [7.0], "title": ["late arrival"]}
            )
            store.append("events", delta, from_version=0, to_version=1)
            store.put_summary("events", 1, "k", {"x": 1})
        with TableStore(path) as store:
            assert store.table_names() == ["events"]
            assert store.load_table("events").n_rows == 5
            assert store.get_summary("events", 1, "k") == {"x": 1}

    def test_closed_store_raises(self, tmp_path):
        store = TableStore(str(tmp_path / "atlas.db"))
        store.register_table(make_table())
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.table_names()
        store.close()  # idempotent

    def test_memory_store_works(self):
        with TableStore() as store:
            store.register_table(make_table())
            assert store.load_table("events").n_rows == 4


def census_rows(n: int, offset: int) -> dict:
    return {
        "Age": [20.0 + (offset + i) % 50 for i in range(n)],
        "Sex": ["Female" if (offset + i) % 2 else "Male" for i in range(n)],
        "Salary": ["<20k"] * n,
        "Education": ["BSc"] * n,
        "Eye color": ["Blue"] * n,
    }


class TestTwoServicesOneStore:
    """Two services on one store file: an append that loses the race
    for a version is refused, never acknowledged and then lost."""

    def test_losing_append_is_refused_not_lost(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        a = ExplorationService(max_workers=1, store=path)
        b = None
        try:
            a.register(census_table(n_rows=1_000, seed=0), persist=True)
            assert a.append("census", census_rows(10, 0)).version == 1
            b = ExplorationService(max_workers=1, store=path)
            won = b.append("census", census_rows(50, 10))
            assert (won.version, won.n_rows) == (2, 1_060)
            with pytest.raises(AppendConflictError, match="'census'"):
                a.append("census", census_rows(7, 60))
            # A kept its last acknowledged state; nothing was swapped in.
            served = a.catalog.resolve("census")
            assert (served.version, served.n_rows) == (1, 1_010)
            assert a.explore("census", fidelity="exact").map_set.version == 1
        finally:
            a.close()
            if b is not None:
                b.close()
        with TableStore(path) as store:
            stored = store.load_table("census")
        assert (stored.version, stored.n_rows) == (2, 1_060)

    def test_retrying_the_logged_delta_stays_a_noop(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(census_table(n_rows=200, seed=0), persist=True)
            service.append("census", census_rows(5, 0))
        table = census_table(n_rows=200, seed=0)
        with TableStore(path) as store:
            delta = table.coerce_delta(census_rows(5, 0))
            assert store.append("census", delta, from_version=0, to_version=1) is False
            assert store.load_table("census").n_rows == 205
