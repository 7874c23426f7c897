"""Stored label dictionaries: sized at load, loaded on first use.

A loaded categorical column knows how many labels its dictionary holds
(``columns.n_labels``), so ``load_table`` range-checks the codes without
touching label text.  The stored text is checked against its CRC-32 the
first time anything reads it; a text predicate then sweeps the scan
index made from it and never builds the label tuple.  A corrupt
dictionary is a typed :class:`StoreError` naming the table, column and
version.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sqlite3
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.dataset import column as column_module
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.datagen import census_table, support_tickets_table
from repro.errors import AppendConflictError, StoreError
from repro.evaluation.metrics import map_set_fingerprint
from repro.service import ExplorationService
from repro.store import TableStore
from repro.store import codec as codec_module

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
    """The ``where`` of every stored dictionary loaded from now on."""
    seen: list[str] = []
    real = codec_module.stored_text

    def spy(labels, lengths, checksum, n_labels, where):
        seen.append(where)
        return real(labels, lengths, checksum, n_labels, where)

    monkeypatch.setattr(codec_module, "stored_text", spy)
    return seen


@pytest.fixture
def built(monkeypatch):
    """The size of every label tuple and scan index built from now on."""
    seen: dict[str, list[int]] = {"tuple": [], "scan index": []}
    for what, name in (("tuple", "_split_text"), ("scan index", "_scan_index")):
        real = getattr(column_module, name)

        def spy(text, lengths, real=real, what=what):
            seen[what].append(len(lengths))
            return real(text, lengths)

        monkeypatch.setattr(column_module, name, spy)
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

    def test_text_query_never_builds_the_title_tuple_and_indexes_it_once(
        self, persisted, decoded, built
    ):
        path, before = persisted
        titles = support_tickets_table(n_rows=4_000, seed=0).categorical("title")
        assert self.restarted_answer(path, TEXT_QUERY) == before[TEXT_QUERY]
        assert len([where for where in decoded if "'title'" in where]) == 1
        assert titles.n_categories not in built["tuple"]
        assert built["scan index"] == [titles.n_categories]


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


def corrupt(path: str, change, *, checksum: bool = False) -> None:
    """Rewrite the stored ``title`` dictionary of version 0 behind the
    store: ``change`` maps its ``(labels, label_lengths, n_labels)`` to
    new ones; ``checksum=True`` writes a CRC that matches them, so the
    structural checks behind the CRC are reached."""
    where = "WHERE table_name='events' AND name='title' AND version=0"
    with sqlite3.connect(path) as conn:
        row = conn.execute(
            f"SELECT labels, label_lengths, n_labels, checksum FROM columns {where}"
        ).fetchone()
        labels, lengths, n_labels = change(*row[:3])
        crc = zlib.crc32(lengths, zlib.crc32(labels)) if checksum else row[3]
        conn.execute(
            "UPDATE columns SET labels=?, label_lengths=?, n_labels=?, "
            f"checksum=? {where}",
            (labels, lengths, n_labels, crc),
        )
    conn.close()


def as_schema_two(path: str, aux: str) -> None:
    """Turn the store back into schema 2, its ``title`` dictionary the
    JSON ``aux``: opening it runs the 2 → 3 migration over that JSON."""
    with sqlite3.connect(path) as conn:
        conn.execute("ALTER TABLE columns ADD COLUMN aux TEXT")
        conn.execute("UPDATE columns SET aux=? WHERE name='title'", (aux,))
        for column in ("labels", "label_lengths", "checksum"):
            conn.execute(f"ALTER TABLE columns DROP COLUMN {column}")
        conn.execute("PRAGMA user_version=2")
    conn.close()


def flip_first(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x20]) + data[1:]


def int32s(*values: int) -> bytes:
    return np.asarray(values, dtype="<i4").tobytes()


def text_case(change, *, checksum: bool = False):
    return lambda path: corrupt(path, change, checksum=checksum)


def json_case(aux: str):
    return lambda path: as_schema_two(path, aux)


#: name → how the stored ``title`` dictionary is corrupted: stored
#: text behind the store's back (with or without a matching CRC), or a
#: schema-2 JSON dictionary that fails the migration's check.
CORRUPT_DICTIONARIES = {
    "a flipped text byte": text_case(lambda t, l, n: (flip_first(t), l, n)),
    "a flipped length byte": text_case(lambda t, l, n: (t, flip_first(l), n)),
    "truncated lengths": text_case(lambda t, l, n: (t, l[:6], n)),
    "truncated lengths under a matching checksum": text_case(
        lambda t, l, n: (t, l[:6], n), checksum=True
    ),
    "lengths that do not sum to the text": text_case(
        lambda t, l, n: (t, int32s(4, 11), n), checksum=True
    ),
    "a negative length": text_case(lambda t, l, n: (t, int32s(-1, 23), n), checksum=True),
    "n_labels larger than the lengths": text_case(lambda t, l, n: (t, l, 3), checksum=True),
    "text that is not UTF-8": text_case(lambda t, l, n: (b"\xff" + t[1:], l, n), checksum=True),
    "no text": text_case(lambda t, l, n: (None, None, n)),
    "duplicate labels (schema 2)": json_case('["disk outage", "disk outage"]'),
    "count differs from n_labels (schema 2)": json_case(
        '["disk outage", "net timeout", "extra"]'
    ),
    "non-string entry (schema 2)": json_case('["disk outage", 7]'),
    "malformed JSON (schema 2)": json_case('["disk outage", "net timeout"'),
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
        CORRUPT_DICTIONARIES[case](path)
        with TableStore(path) as store:
            table = store.load_table("events")  # sizes only: loads fine
        title = table.categorical("title")
        assert title.n_categories in (2, 3)
        for use in (  # and again: a corrupt dictionary never loads
            lambda: title.categories,
            lambda: title.dictionary.scan_index(),
            lambda: title.categories,
        ):
            with pytest.raises(StoreError) as raised:
                use()
            message = str(raised.value)
            assert "'title'" in message
            assert "'events'" in message
            assert "version 0" in message

    @pytest.mark.parametrize("case", sorted(CORRUPT_DICTIONARIES))
    def test_a_query_reading_the_labels_never_answers(self, path, case):
        CORRUPT_DICTIONARIES[case](path)
        with ExplorationService(max_workers=1, store=path) as service:
            for query in ("title: contains 'disk'", "title: match 'disk'"):
                with pytest.raises(StoreError, match="'title'"):
                    service.explore("events", query, use_cache=False)
            with TableStore(path) as store:
                with pytest.raises(StoreError, match="'title'"):
                    store.search("events", "title", "disk")

    def test_null_label_count_fails_at_load(self, path):
        corrupt(path, lambda t, l, n: (t, l, None))
        with TableStore(path) as store:
            with pytest.raises(StoreError) as raised:
                store.load_table("events")
        message = str(raised.value)
        assert "'title'" in message and "'events'" in message
        assert "version 0" in message and "no label count" in message

    def test_codes_past_n_labels_fail_at_first_use(self, path):
        corrupt(path, lambda t, l, n: (t, l, 1))
        with TableStore(path) as store:
            title = store.load_table("events").categorical("title")
            taken = title.take(np.array([0]))  # a take reads nothing yet
            for use in (  # and again on every later read
                lambda: title.codes,
                lambda: taken.codes,
                lambda: title.codes,
                lambda: taken.codes,
            ):
                with pytest.raises(StoreError, match="out-of-range") as raised:
                    use()
                assert "'title'" in str(raised.value)
                assert "version 0" in str(raised.value)


def table_digest(table: Table) -> str:
    """sha256 over each column's name, kind, raw buffer and JSON label
    list (the digest the fixtures' ``table_digest`` fields record)."""
    digest = hashlib.sha256()
    for column in table.columns:
        if isinstance(column, CategoricalColumn):
            data, aux = column.codes.tobytes(), json.dumps(list(column.categories))
        else:
            data, aux = column.data.tobytes(), ""
        for part in (column.name.encode(), column.kind.value.encode(), data, aux.encode()):
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
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 4
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
            conn.execute("PRAGMA user_version=5")
        conn.close()
        with pytest.raises(StoreError, match="schema version 5"):
            TableStore(path)


class TestSchemaTwoStore:
    """A store written by the last schema-2 build (tickets, one append,
    one summary; JSON dictionaries and an FTS5 ``label_fts``) migrates
    in place and answers text queries as that build did."""

    @pytest.fixture
    def golden(self):
        return json.loads((DATA / "store_v2_tickets.json").read_text())

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "atlas.db"
        shutil.copyfile(DATA / "store_v2_tickets.db", path)
        return str(path)

    def test_migrates_and_loads_bit_identically(self, path, golden):
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 2
        conn.close()
        with TableStore(path) as store:
            table = store.load_table("support_tickets")
            assert [list(key) for key in store.summary_keys("support_tickets")] == (
                golden["summary_keys"]
            )
        assert (table.version, table.n_rows) == (golden["version"], golden["n_rows"])
        assert table_digest(table) == golden["table_digest"]
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 4
            assert conn.execute(
                "SELECT COUNT(*) FROM columns WHERE kind='categorical' AND "
                "(checksum IS NULL OR aux IS NOT NULL)"
            ).fetchone()[0] == 0
            assert conn.execute(
                "SELECT COUNT(*) FROM append_log WHERE digest IS NULL"
            ).fetchone()[0] == 0
            assert not conn.execute(
                "SELECT name FROM sqlite_master WHERE name LIKE 'label_fts%'"
            ).fetchall()
        conn.close()

    def test_answers_text_queries_with_the_schema_two_fingerprints(self, path, golden):
        for query, fingerprint in golden["fingerprints"].items():
            with ExplorationService(max_workers=1, store=path) as service:
                warm = service.explore(
                    "support_tickets", query, config=golden["config"], use_cache=False
                )
                assert service.metrics()["requests"]["warm_starts"] == 1
            assert map_set_fingerprint(warm.map_set) == fingerprint, query

    def test_search_gives_the_schema_two_answers(self, path, golden):
        with TableStore(path) as store:
            for text, mode, labels in golden["searches"]:
                assert store.search(
                    "support_tickets", "title", text, mode=mode, limit=1_000
                ) == labels, (text, mode)

    def test_migrated_log_still_dedupes_the_logged_delta(self, path, golden):
        spec = golden["table"]
        start = support_tickets_table(n_rows=spec["n_rows"], seed=spec["seed"])
        delta = start.coerce_delta(spec["append"])
        with TableStore(path) as store:
            assert table_digest(start.append(delta)) == table_digest(
                store.load_table("support_tickets")
            )
            assert store.append(
                "support_tickets", delta, from_version=0, to_version=1
            ) is False
            other = start.coerce_delta({k: v[:1] for k, v in spec["append"].items()})
            with pytest.raises(AppendConflictError):
                store.append("support_tickets", other, from_version=0, to_version=1)

    def test_a_dictionary_failing_the_old_check_fails_on_first_use(self, path):
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE columns SET aux='[\"low\", \"low\", \"high\", \"medium\"]' "
                "WHERE name='severity' AND version=0"
            )
        conn.close()
        with TableStore(path) as store:
            # Replaying the append unions dictionaries: the first use.
            with pytest.raises(StoreError, match="'severity' of stored table") as raised:
                store.load_table("support_tickets")
        assert "version 0" in str(raised.value)
        assert "fails its checksum" in str(raised.value)


#: Schema 4's ``columns`` fields: the fixed-size ones before the BLOBs.
COLUMN_FIELDS = [
    "table_name", "version", "position", "name", "kind",
    "n_labels", "checksum", "data", "labels", "label_lengths",
]


def column_fields(path: str) -> list[str]:
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return [row[1] for row in conn.execute("PRAGMA table_info(columns)")]


class TestColumnOrder:
    """``load_table``'s metadata read stops before the buffers only if
    SQLite stores ``n_labels`` ahead of them."""

    def test_a_fresh_store_puts_the_fixed_size_fields_first(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        TableStore(path).close()
        assert column_fields(path) == COLUMN_FIELDS

    def test_a_migrated_store_puts_them_first_and_keeps_rowids(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        shutil.copyfile(DATA / "store_v3_census.db", path)
        rows = "SELECT rowid, table_name, version, position, data FROM columns"
        with contextlib.closing(sqlite3.connect(path)) as conn:
            before = conn.execute(rows).fetchall()
        TableStore(path).close()
        assert column_fields(path) == COLUMN_FIELDS
        with contextlib.closing(sqlite3.connect(path)) as conn:
            assert conn.execute(rows).fetchall() == before
            assert conn.execute("PRAGMA user_version").fetchone()[0] == 4

    def test_a_store_from_schema_two_keeps_its_unread_aux_last(self, tmp_path):
        path = str(tmp_path / "atlas.db")
        shutil.copyfile(DATA / "store_v2_tickets.db", path)
        TableStore(path).close()
        assert column_fields(path) == COLUMN_FIELDS + ["aux"]
