"""Stored buffers on first use: ``load_table`` reads metadata only.

A loaded table's numeric values, categorical codes and label text are
fetched (by rowid) and checked the first time something reads them.
The table stays readable for its whole life — after the store closes,
after the store drops or replaces its rows, and for ``":memory:"``
stores — and a row that another connection replaced meanwhile is a
typed :class:`StoreError`, never other bytes.
"""

from __future__ import annotations

import contextlib
import re
import shutil
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.datagen import census_table, support_tickets_table
from repro.errors import StoreError
from repro.evaluation.metrics import map_set_fingerprint
from repro.service import ExplorationService
from repro.store import TableStore
from repro.store import store as store_module
from repro.store.codec import column_row

from tests.store.test_labels import NON_TEXT_QUERIES, SKETCH, TEXT_QUERY


def census_history() -> tuple[Table, list[Table]]:
    """A census base and two coerced deltas bringing new labels."""
    base = current = census_table(n_rows=300, seed=0)
    deltas = []
    for offset in (0, 5):
        delta = current.coerce_delta({
            "Age": [30.0 + offset, 41.0],
            "Sex": ["Female", "Male"],
            "Salary": ["<20k", "a new band"],
            "Education": ["BSc", "PhD"],
            "Eye color": [f"color {offset}", "Blue"],
        })
        deltas.append(delta)
        current = current.append(delta)
    return base, deltas


def assert_identical(loaded: Table, expected: Table) -> None:
    """Every column's stored form (kind, buffer, dictionary) is equal."""
    assert loaded.column_names == expected.column_names
    assert loaded.version == expected.version
    for column in expected.columns:
        assert column_row(loaded.column(column.name)) == column_row(column)


class TestLifetime:
    """A loaded table reads back bit-identically whatever its store does."""

    TABLE = staticmethod(lambda: support_tickets_table(n_rows=500, seed=3))

    def test_file_store_after_close(self, tmp_path):
        table = self.TABLE()
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            loaded = store.load_table(table.name)
        assert_identical(loaded, table)

    def test_appended_table_after_close(self, tmp_path):
        table, deltas = census_history()
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            for delta in deltas:
                store.append(table.name, delta, from_version=table.version,
                             to_version=table.version + 1)
                table = table.append(delta)
            loaded = store.load_table(table.name)
        assert_identical(loaded, table)

    @pytest.mark.parametrize("drop", ["overwrite", "delete"])
    def test_after_the_store_drops_the_rows(self, tmp_path, drop):
        table = self.TABLE()
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            loaded = store.load_table(table.name)
            if drop == "overwrite":
                store.register_table(
                    support_tickets_table(n_rows=40, seed=9), overwrite=True
                )
            else:
                store.delete_table(table.name)
            assert_identical(loaded, table)

    def test_memory_store_after_close(self):
        table = self.TABLE()
        store = TableStore()
        store.register_table(table)
        loaded = store.load_table(table.name)
        store.close()
        assert_identical(loaded, table)

    @pytest.mark.parametrize("drop", ["overwrite", "delete"])
    def test_a_row_replaced_by_another_connection_is_a_typed_error(self, tmp_path, drop):
        path = str(tmp_path / "atlas.db")
        table = self.TABLE()
        with TableStore(path) as store:
            store.register_table(table)
            loaded = store.load_table(table.name)
            with TableStore(path) as other:
                if drop == "overwrite":
                    other.register_table(
                        support_tickets_table(n_rows=500, seed=4), overwrite=True
                    )
                else:
                    other.delete_table(table.name)
            for read in (
                lambda: loaded.numeric("hours_open").data,
                lambda: loaded.categorical("severity").codes,
                lambda: loaded.categorical("title").categories,
                lambda: loaded.numeric("hours_open").data,  # and again
            ):
                with pytest.raises(StoreError, match="was replaced") as raised:
                    read()
                assert "'support_tickets'" in str(raised.value)
                assert "version 0" in str(raised.value)


class TestConcurrentFirstUse:
    def test_eight_threads_load_each_buffer_once(self, tmp_path, monkeypatch):
        table = support_tickets_table(n_rows=2_000, seed=0)
        selects: list[tuple[str, str]] = []
        real = store_module.TableStore._select_locked

        def spy(self, buffer):
            selects.append((buffer.where, buffer.fields))
            return real(self, buffer)

        monkeypatch.setattr(store_module.TableStore, "_select_locked", spy)
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            loaded = store.load_table(table.name)
            gate = threading.Barrier(8)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                def read(index):
                    gate.wait(timeout=10)
                    if index % 2:
                        return loaded.categorical("component").codes
                    return loaded.numeric("hours_open").data

                with ThreadPoolExecutor(max_workers=8) as pool:
                    seen = list(pool.map(read, range(8), timeout=30))
            finally:
                sys.setswitchinterval(interval)
        assert sorted(fields for _, fields in selects) == ["data", "data"]
        assert all(array is seen[1] for array in seen[1::2])
        assert all(array is seen[0] for array in seen[::2])
        np.testing.assert_array_equal(seen[0], table.numeric("hours_open").data)
        np.testing.assert_array_equal(seen[1], table.categorical("component").codes)


def rewrite_data(path: str, version: int, column: str, blob: bytes) -> None:
    """Overwrite one stored buffer behind the store's back."""
    with contextlib.closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(
            "UPDATE columns SET data=? WHERE version=? AND name=?",
            (blob, version, column),
        )


class TestMalformedBuffersFailAtLoad:
    """A buffer whose byte length does not fit its row count is a typed
    error at ``load_table``, naming column, table and version."""

    def stored(self, tmp_path) -> str:
        path = str(tmp_path / "atlas.db")
        table = Table(
            [NumericColumn("c", [1.0, 2.0]),
             CategoricalColumn.from_values("k", ["a", "b"])],
            name="t",
        )
        with TableStore(path) as store:
            store.register_table(table)
            delta = table.coerce_delta({"c": [3.0, 4.0, 5.0], "k": ["a", "c", "a"]})
            store.append("t", delta, from_version=0, to_version=1)
        return path

    @pytest.mark.parametrize(
        "version, column, blob, expected",
        [
            (0, "c", b"\x00" * 7, "holds 7 bytes, expected 16"),
            (1, "c", b"\x00" * 16, "holds 16 bytes, expected 24"),
            (1, "k", b"\x00" * 8, "holds 8 bytes, expected 12"),
        ],
    )
    def test_wrong_byte_length(self, tmp_path, version, column, blob, expected):
        path = self.stored(tmp_path)
        rewrite_data(path, version, column, blob)
        with TableStore(path) as store:
            with pytest.raises(StoreError, match=expected) as raised:
                store.load_table("t")
        message = str(raised.value)
        assert f"column {column!r}" in message
        assert "'t'" in message and f"version {version}" in message


#: The tickets table's columns, each one stored buffer.
COLUMNS = support_tickets_table(n_rows=10, seed=0).column_names

_SELECT = re.compile(r"^\s*SELECT\s+(.*?)\s+FROM", re.I | re.S)


def buffers_selected(path: str, statements: list[str]) -> list[tuple[str, str | None]]:
    """``(field, column)`` for every buffer field (``data``, ``labels``)
    a SELECT names itself (``length(data)`` reads no buffer)."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        names = dict(conn.execute("SELECT rowid, name FROM columns"))
    read = []
    for statement in statements:
        match = _SELECT.match(statement)
        if match:
            rowid = re.search(r"rowid=(\d+)", statement)
            column = names.get(int(rowid.group(1))) if rowid else None
            fields = [f.strip().split(".")[-1] for f in match.group(1).split(",")]
            read += [(f, column) for f in fields if f in ("data", "labels")]
    return sorted(read)


class TestRestartReadsOnlyWhatTheQueryReads:
    """A restarted service reads the value or code buffer of exactly the
    columns its query names, once each: the restored reservoir is a
    ``take`` that gathers a column's rows on its first read, so the
    other columns' buffers stay in the store.  It reads only the label
    text its predicates name: the small dictionaries a set predicate
    maps to codes, ``title`` for a text predicate."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("first_use") / "atlas.db")
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(support_tickets_table(n_rows=4_000, seed=0), persist=True)
            service.explore("support_tickets", TEXT_QUERY, fidelity=SKETCH, use_cache=False)
        return path

    @pytest.fixture
    def statements(self, monkeypatch):
        """Every statement the store's own connections run from now on."""
        seen: list[str] = []
        real = store_module.open_sqlite

        def traced(path):
            conn = real(path)
            conn.set_trace_callback(seen.append)
            return conn

        monkeypatch.setattr(store_module, "open_sqlite", traced)
        return seen

    def restart(self, path, query):
        with ExplorationService(max_workers=1, store=path) as service:
            service.explore("support_tickets", query, fidelity=SKETCH, use_cache=False)
            assert service.metrics()["requests"]["warm_starts"] == 1

    @staticmethod
    def attributes(query: str) -> list[str]:
        """The columns a query's predicates name, one per line."""
        return [line.split(":")[0] for line in query.split("\n")]

    @pytest.mark.parametrize("query", NON_TEXT_QUERIES)
    def test_non_text_query_reads_each_buffer_once_and_no_title_text(
        self, path, statements, query
    ):
        self.restart(path, query)
        assert any("FROM columns" in s for s in statements)  # the trace works
        named = [line.split(":")[0] for line in query.split("\n") if "{" in line]
        assert buffers_selected(path, statements) == sorted(
            [("data", c) for c in self.attributes(query)] + [("labels", c) for c in named]
        )

    def test_text_query_reads_each_buffer_once_and_the_title_text_once(
        self, path, statements
    ):
        self.restart(path, TEXT_QUERY)
        assert "title" in self.attributes(TEXT_QUERY)
        assert buffers_selected(path, statements) == sorted(
            [("data", c) for c in self.attributes(TEXT_QUERY)] + [("labels", "title")]
        )

    def test_search_reads_no_codes(self, path, statements):
        with TableStore(path) as store:
            assert store.search("support_tickets", "title", "disk")
        assert buffers_selected(path, statements) == [("labels", None)]


class TestRestartWithACorruptBuffer:
    """A corrupt stored buffer fails only the queries that read it, as a
    typed error on every read; the others answer as before the damage."""

    COMPONENT = NON_TEXT_QUERIES[1]  # reads "component" alone
    HOURS = NON_TEXT_QUERIES[0]  # reads "hours_open" alone

    @pytest.fixture(scope="class")
    def persisted(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("corrupt") / "atlas.db")
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(support_tickets_table(n_rows=4_000, seed=0), persist=True)
            service.explore("support_tickets", fidelity=SKETCH, use_cache=False)
        with ExplorationService(max_workers=1, store=path) as service:
            answers = {
                query: map_set_fingerprint(service.explore(
                    "support_tickets", query, fidelity=SKETCH, use_cache=False
                ).map_set)
                for query in (self.COMPONENT, self.HOURS)
            }
        return path, answers

    @pytest.fixture
    def path(self, persisted, tmp_path):
        path = str(tmp_path / "atlas.db")
        shutil.copy(persisted[0], path)
        return path

    def check(self, service, persisted, column, reads, skips, match):
        for _ in range(2):  # and again on the next read
            with pytest.raises(StoreError, match=match) as raised:
                service.explore("support_tickets", reads, fidelity=SKETCH, use_cache=False)
            assert f"column {column!r}" in str(raised.value)
            assert "version 0" in str(raised.value)
            assert service.metrics()["service"]["pending"] == 0
        answer = service.explore("support_tickets", skips, fidelity=SKETCH, use_cache=False)
        assert map_set_fingerprint(answer.map_set) == persisted[1][skips]
        assert service.metrics()["requests"]["warm_starts"] == 1

    @pytest.mark.parametrize(
        "column, reads, skips",
        [("component", COMPONENT, HOURS), ("hours_open", HOURS, COMPONENT)],
    )
    def test_a_buffer_replaced_after_the_restore(
        self, persisted, path, column, reads, skips
    ):
        with ExplorationService(max_workers=1, store=path) as service:
            # Loads the table and restores the backend, reading "severity".
            service.explore(
                "support_tickets", "severity: {'low', 'high'}", fidelity=SKETCH,
                use_cache=False,
            )
            rewrite_data(path, 0, column, b"\x00" * 7)
            self.check(service, persisted, column, reads, skips, "was replaced")

    def test_codes_past_the_dictionary_before_the_restart(self, persisted, path):
        rewrite_data(path, 0, "component", np.full(4_000, 99, dtype="<i4").tobytes())
        with ExplorationService(max_workers=1, store=path) as service:
            self.check(
                service, persisted, "component", self.COMPONENT, self.HOURS, "out-of-range"
            )
