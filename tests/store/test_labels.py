"""Stored label dictionaries: sized at load, decoded on first use.

A loaded categorical column knows how many labels its dictionary holds
(``columns.n_labels``), so ``load_table`` range-checks the codes without
touching label text; the JSON is decoded and validated once, the first
time a query reads the labels.  A corrupt dictionary is a typed
:class:`StoreError` naming the table, column and version.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.datagen import census_table, support_tickets_table
from repro.errors import AppendConflictError, StoreError
from repro.evaluation.metrics import map_set_fingerprint
from repro.service import ExplorationService
from repro.store import TableStore
from repro.store import codec as codec_module
from repro.store.codec import column_blob

DATA = Path(__file__).parent / "data"

#: The ``warm_restart`` benchmark queries that read no ``title`` label.
NON_TEXT_QUERIES = (
    "hours_open: [2, 100]",
    "component: {'storage', 'network'}",
    "severity: {'low'}\nhours_open: [0, 24]",
    "component: {'auth', 'ui', 'api'}\nseverity: {'medium', 'high'}",
    "hours_open: [10, 500]\ncomponent: {'billing', 'api'}",
)
TEXT_QUERY = "hours_open: [0, 48]\ntitle: match 'disk'"
SKETCH = "sketch:1000"


@pytest.fixture
def decoded(monkeypatch):
    """The ``where`` of every stored dictionary decoded from now on."""
    seen: list[str] = []
    real = codec_module.stored_labels

    def spy(aux, n_labels, where):
        seen.append(where)
        return real(aux, n_labels, where)

    monkeypatch.setattr(codec_module, "stored_labels", spy)
    return seen


class TestRestartDecodesOnlyWhatTheQueryReads:
    @pytest.fixture(scope="class")
    def persisted(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("labels") / "atlas.db")
        table = support_tickets_table(n_rows=4_000, seed=0)
        queries = NON_TEXT_QUERIES + (TEXT_QUERY,)
        with ExplorationService(max_workers=1, store=path) as service:
            service.register(table, persist=True)
            before = {
                query: map_set_fingerprint(
                    service.explore(
                        "support_tickets", query, fidelity=SKETCH, use_cache=False
                    ).map_set
                )
                for query in queries
            }
        return path, before

    def restarted_answer(self, path, query):
        with ExplorationService(max_workers=1, store=path) as service:
            response = service.explore(
                "support_tickets", query, fidelity=SKETCH, use_cache=False
            )
            assert service.metrics()["requests"]["warm_starts"] == 1
        return map_set_fingerprint(response.map_set)

    @pytest.mark.parametrize("query", NON_TEXT_QUERIES)
    def test_non_text_query_never_decodes_title(self, persisted, decoded, query):
        path, before = persisted
        assert self.restarted_answer(path, query) == before[query]
        assert not [where for where in decoded if "'title'" in where]

    def test_text_query_decodes_title_once(self, persisted, decoded):
        path, before = persisted
        assert self.restarted_answer(path, TEXT_QUERY) == before[TEXT_QUERY]
        assert len([where for where in decoded if "'title'" in where]) == 1


def events_table() -> Table:
    return Table(
        [
            NumericColumn("hours", [1.0, 2.0, 3.0, 4.0]),
            CategoricalColumn.from_values(
                "title", ["disk outage", "net timeout", "disk outage", None]
            ),
        ],
        name="events",
    )


def corrupt(path: str, sql: str, *params) -> None:
    """Rewrite the stored ``title`` row of version 0 behind the store."""
    with sqlite3.connect(path) as conn:
        conn.execute(
            f"UPDATE columns SET {sql} WHERE table_name='events' "
            "AND name='title' AND version=0",
            params,
        )
    conn.close()


CORRUPT_DICTIONARIES = {
    "duplicate labels": ("aux=?", '["disk outage", "disk outage"]'),
    "count differs from n_labels": (
        "aux=?",
        '["disk outage", "net timeout", "extra"]',
    ),
    "non-string entry": ("aux=?", '["disk outage", 7]'),
    "malformed JSON": ("aux=?", '["disk outage", "net timeout"'),
}


class TestCorruptDictionaries:
    @pytest.fixture
    def path(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        with TableStore(path) as store:
            store.register_table(events_table())
        return path

    @pytest.mark.parametrize("case", sorted(CORRUPT_DICTIONARIES))
    def test_first_label_use_is_a_typed_error(self, path, case):
        corrupt(path, *CORRUPT_DICTIONARIES[case])
        with TableStore(path) as store:
            table = store.load_table("events")  # sizes only: loads fine
        title = table.categorical("title")
        assert title.n_categories == 2
        for _ in range(2):  # and again: a corrupt dictionary never decodes
            with pytest.raises(StoreError) as raised:
                title.categories
            message = str(raised.value)
            assert "'title'" in message
            assert "'events'" in message
            assert "version 0" in message

    @pytest.mark.parametrize("case", sorted(CORRUPT_DICTIONARIES))
    def test_a_query_reading_the_labels_never_answers(self, path, case):
        corrupt(path, *CORRUPT_DICTIONARIES[case])
        with ExplorationService(max_workers=1, store=path) as service:
            with pytest.raises(StoreError, match="'title'"):
                service.explore("events", "title: contains 'disk'")

    def test_null_label_count_fails_at_load(self, path):
        corrupt(path, "n_labels=NULL")
        with TableStore(path) as store:
            with pytest.raises(StoreError) as raised:
                store.load_table("events")
        message = str(raised.value)
        assert "'title'" in message and "'events'" in message
        assert "version 0" in message and "no label count" in message

    def test_codes_past_n_labels_fail_at_load(self, path):
        corrupt(path, "n_labels=1")
        with TableStore(path) as store:
            with pytest.raises(StoreError, match="out-of-range") as raised:
                store.load_table("events")
        assert "'title'" in str(raised.value)
        assert "version 0" in str(raised.value)


def table_digest(table: Table) -> str:
    digest = hashlib.sha256()
    for column in table.columns:
        kind, data, aux = column_blob(column)
        for part in (column.name.encode(), kind.encode(), data, (aux or "").encode()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


class TestSchemaOneStore:
    """A store written by the last schema-1 build (census, one append,
    one summary) migrates in place and answers as that build did."""

    @pytest.fixture
    def golden(self):
        return json.loads((DATA / "store_v1_census.json").read_text())

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "atlas.db"
        shutil.copyfile(DATA / "store_v1_census.db", path)
        return str(path)

    def test_migrates_and_loads_bit_identically(self, path, golden):
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 1
        conn.close()
        with TableStore(path) as store:
            table = store.load_table("census")
            assert [list(key) for key in store.summary_keys("census")] == (
                golden["summary_keys"]
            )
        assert (table.version, table.n_rows) == (golden["version"], golden["n_rows"])
        assert table_digest(table) == golden["table_digest"]
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 2
            assert conn.execute(
                "SELECT COUNT(*) FROM columns WHERE kind='categorical' "
                "AND n_labels IS NULL"
            ).fetchone()[0] == 0
            assert conn.execute(
                "SELECT COUNT(*) FROM append_log WHERE digest IS NULL"
            ).fetchone()[0] == 0
        conn.close()

    def test_answers_with_the_schema_one_fingerprint(self, path, golden):
        with ExplorationService(max_workers=1, store=path) as service:
            warm = service.explore(
                "census", golden["query"], config=golden["config"], use_cache=False
            )
            assert service.metrics()["requests"]["warm_starts"] == 1
        assert map_set_fingerprint(warm.map_set) == golden["fingerprint"]

    def test_migrated_log_still_dedupes_the_logged_delta(self, path, golden):
        with TableStore(path) as store:
            base = store.load_table("census")
        # The table the logged append was made on, regenerated.
        spec = golden["table"]
        start = census_table(n_rows=spec["n_rows"], seed=spec["seed"])
        ordered = {name: spec["append"][name] for name in start.column_names}
        delta = start.coerce_delta(ordered)
        assert table_digest(start.append(delta)) == table_digest(base)
        with TableStore(path) as store:
            assert store.append("census", delta, from_version=0, to_version=1) is False
            reordered = dict(reversed(list(spec["append"].items())))
            same = start.coerce_delta(reordered)
            assert store.append("census", same, from_version=0, to_version=1) is False
            other = start.coerce_delta({k: v[:1] for k, v in spec["append"].items()})
            with pytest.raises(AppendConflictError):
                store.append("census", other, from_version=0, to_version=1)

    def test_a_newer_schema_is_still_refused(self, path):
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version=3")
        conn.close()
        with pytest.raises(StoreError, match="schema version 3"):
            TableStore(path)
