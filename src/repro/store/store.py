"""The persistent table store: registered tables, appends, summaries.

One SQLite database (the :class:`~repro.service.history.QueryHistory`
conventions: WAL journal and ``synchronous=NORMAL`` for file paths,
``busy_timeout``, a ``user_version``-gated schema, one connection under
one lock) durably records three things per registered table:

* the **base table** — raw column buffers via :mod:`repro.store.codec`;
* the **append log** — one row per version pair ``(from, to)`` plus the
  coerced delta's column buffers and their digest, so a restart replays
  the exact streaming history through
  :meth:`repro.dataset.table.Table.append` and lands on a bit-identical
  current table.  Replay is idempotent: re-issuing an already-logged
  pair with the same delta (a client retrying through a crash) is a
  no-op, while a different delta under a logged pair (another service
  on the same file appended first) is an :class:`AppendConflictError`.
  The log + buffers commit in one transaction so a crash mid-append
  leaves either both or neither;
* **sketch summaries** — JSON documents keyed ``(table, version,
  summary key)`` holding a serialized reservoir plus its built GK /
  Misra–Gries / token sketches, which :mod:`repro.store.warm` turns
  back into a ready :class:`~repro.engine.backends.SketchBackend` so a
  restarted service answers its first explore without rescanning.

A categorical column's dictionary is stored once, as checksummed text
(:func:`repro.store.codec.dictionary_row`).  :meth:`search` sweeps that
text with the text predicates' own scan, so its answers are the
predicate masks' by construction.

:meth:`TableStore.load_table` reads row metadata only; each buffer
(values, codes, label text) is fetched by rowid and checked on first
use, and stays readable for the table's whole life (DESIGN, "Buffers
on first use").
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import sqlite3
import threading
import time
import weakref
from pathlib import Path

import numpy as np

from repro.dataset.column import CategoricalColumn, Column, NumericColumn, label_text
from repro.dataset.table import Table
from repro.errors import AppendConflictError, AtlasError, PredicateError, StoreError
from repro.query.predicate import ContainsPredicate, MatchPredicate
from repro.sketch.state import decode_buffer, encode_sample
from repro.store.codec import (
    column_row,
    dictionary_row,
    stored_column,
    stored_dictionary,
    stored_labels,
    table_schema,
)

#: 2 added ``columns.n_labels`` and ``append_log.digest``; 3 stores
#: dictionaries as checksummed text (``labels``, ``label_lengths``,
#: ``checksum``) instead of JSON ``aux`` and drops ``label_fts``; 4
#: stores a summary's sample as row positions instead of a copy of the
#: rows, and puts ``columns``' fixed-size fields before its BLOBs.  An
#: older store is migrated in place when opened (:data:`_MIGRATIONS`).
_SCHEMA_VERSION = 4


def open_sqlite(path: str) -> sqlite3.Connection:
    """One shared connection with the repo's SQLite conventions.

    ``check_same_thread=False`` because the owner serializes every
    statement under its own lock; ``sqlite3.Row`` rows; WAL journal and
    ``synchronous=NORMAL`` for file paths; a 30 s ``busy_timeout``.
    Schema checks stay with the caller.
    """
    conn = sqlite3.connect(path, check_same_thread=False)
    conn.row_factory = sqlite3.Row
    if path != ":memory:":
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA busy_timeout=30000")
    return conn


#: The fixed-size fields come first: SQLite stores a row's fields in
#: this order, so ``load_table``'s metadata read (``n_labels``) stops
#: before the buffers' overflow pages.  ``{legacy}`` keeps the unread
#: ``aux`` of a store first written by schema 1 or 2.
_COLUMNS = """CREATE TABLE IF NOT EXISTS {name} (
    table_name TEXT NOT NULL,
    version INTEGER NOT NULL,
    position INTEGER NOT NULL,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    n_labels INTEGER,
    checksum INTEGER,
    data BLOB NOT NULL,
    labels BLOB,
    label_lengths BLOB,{legacy}
    PRIMARY KEY (table_name, version, position)
)"""

_CREATE = f"""
CREATE TABLE IF NOT EXISTS tables (
    name TEXT PRIMARY KEY,
    created REAL NOT NULL,
    base_version INTEGER NOT NULL,
    base_rows INTEGER NOT NULL,
    schema TEXT NOT NULL
);
{_COLUMNS.format(name="columns", legacy="")};
CREATE TABLE IF NOT EXISTS append_log (
    table_name TEXT NOT NULL,
    from_version INTEGER NOT NULL,
    to_version INTEGER NOT NULL,
    created REAL NOT NULL,
    n_rows INTEGER NOT NULL,
    digest TEXT,
    PRIMARY KEY (table_name, to_version)
);
CREATE TABLE IF NOT EXISTS summaries (
    table_name TEXT NOT NULL,
    version INTEGER NOT NULL,
    summary_key TEXT NOT NULL,
    created REAL NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (table_name, version, summary_key)
);
CREATE INDEX IF NOT EXISTS idx_append_from
    ON append_log (table_name, from_version);
"""

def _digest(rows: list) -> str:
    """blake2b over a delta's stored rows (name, kind, codes or values,
    label text and lengths), taken in name order: the delta's column
    order is not its content."""
    digest = hashlib.blake2b(digest_size=16)
    for name, kind, data, labels, _, lengths, *_ in sorted(rows, key=lambda row: row[0]):
        for part in (name.encode(), kind.encode(), data, labels or b"", lengths or b""):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


class _Buffer:
    """A loaded table's stored buffer: ``fields`` (a SELECT list) of the
    row ``key`` (rowid, table, created), fetched on first use; ``pinned``
    keeps the fetched row, so a failed check fails again alike."""

    __slots__ = ("key", "fields", "size", "where", "pinned", "__weakref__")

    def __init__(self, key: tuple, fields: str, size: int | None, where: str) -> None:
        self.key, self.fields, self.size, self.where = key, fields, size, where
        self.pinned: tuple | None = None


def _stored_rows(conn: sqlite3.Connection, name: str, version: int) -> list:
    """One table version's stored column rows, in position order and
    in :func:`repro.store.codec.column_row`'s field order."""
    return conn.execute(
        "SELECT name, kind, data, labels, n_labels, label_lengths, checksum "
        "FROM columns WHERE table_name=? AND version=? ORDER BY position",
        (name, version),
    ).fetchall()


def _migrate_v1(conn: sqlite3.Connection) -> None:
    """Schema 1 → 2 in place: count every stored dictionary's labels,
    once.  A dictionary that does not decode keeps a NULL count, which
    loading reports as corruption.  :func:`_migrate_v2` digests the
    logged deltas."""
    conn.execute("ALTER TABLE columns ADD COLUMN n_labels INTEGER")
    conn.execute("ALTER TABLE append_log ADD COLUMN digest TEXT")
    categorical = "SELECT rowid, aux FROM columns WHERE kind='categorical'"
    for rowid, aux in conn.execute(categorical).fetchall():
        with contextlib.suppress(TypeError, ValueError):
            conn.execute(
                "UPDATE columns SET n_labels=? WHERE rowid=?",
                (len(json.loads(aux)), rowid),
            )


def _migrate_v2(conn: sqlite3.Connection) -> None:
    """Schema 2 → 3 in place: each JSON dictionary gets the full check
    reads used to make and is rewritten as checksummed text; one that
    fails gets no text, so it fails its checksum on first use.  Then
    every logged delta is digested over its new rows, and the FTS5
    copy of the labels, which nothing reads, is dropped."""
    for column in ("labels BLOB", "label_lengths BLOB", "checksum INTEGER"):
        conn.execute(f"ALTER TABLE columns ADD COLUMN {column}")
    categorical = (
        "SELECT rowid, table_name, version, name, aux, n_labels FROM columns "
        "WHERE kind='categorical'"
    )
    for rowid, table, version, name, aux, n_labels in conn.execute(categorical).fetchall():
        where = f"column {name!r} of stored table {table!r} at version {version}"
        with contextlib.suppress(StoreError):
            labels = label_text(stored_labels(aux, n_labels, where))
            conn.execute(
                "UPDATE columns SET labels=?, label_lengths=?, checksum=? WHERE rowid=?",
                (*dictionary_row(*labels), rowid),
            )
    conn.execute("UPDATE columns SET aux=NULL")
    for name, version in conn.execute(
        "SELECT table_name, to_version FROM append_log"
    ).fetchall():
        conn.execute(
            "UPDATE append_log SET digest=? WHERE table_name=? AND to_version=?",
            (_digest(_stored_rows(conn, name, version)), name, version),
        )
    # A SQLite without FTS5 cannot drop the table; it stays, unread.
    with contextlib.suppress(sqlite3.OperationalError):
        conn.execute("DROP TABLE IF EXISTS label_fts")


def _migrate_v3(conn: sqlite3.Connection) -> None:
    """Schema 3 → 4's layout half: ``columns`` is rebuilt in schema 4's
    field order, rowids kept.  :func:`_position_summaries` rewrites the
    summaries once the tables load."""
    fields = [row["name"] for row in conn.execute("PRAGMA table_info(columns)")]
    legacy = "\n    aux TEXT," if "aux" in fields else ""
    conn.execute(_COLUMNS.format(name="columns_v4", legacy=legacy))
    listed = ", ".join(["rowid", *fields])
    conn.execute(f"INSERT INTO columns_v4 ({listed}) SELECT {listed} FROM columns")
    conn.execute("DROP TABLE columns")
    conn.execute("ALTER TABLE columns_v4 RENAME TO columns")


def _row_bytes(columns: list[np.ndarray]) -> list[bytes]:
    """Each row of equal-length int64 ``columns`` as one bytes value."""
    keys = np.stack(columns, axis=1)
    return keys.view(np.dtype((np.void, keys.itemsize * len(columns)))).ravel().tolist()


def _copied_rows(sample: dict, table: Table) -> list[bytes]:
    """A schema-3 summary's copied reservoir (its ``sample`` table
    payload), each row keyed as :func:`_table_rows` keys ``table``'s:
    float64 bits, or codes into ``table``'s dictionary (a borrowed
    column's codes already are; an inline dictionary's labels are
    looked up)."""
    if [entry["name"] for entry in sample["columns"]] != list(table.column_names):
        raise StoreError("stored reservoir columns differ from the table's")
    keys = []
    for entry in sample["columns"]:
        column = table.column(entry["name"])
        if entry["kind"] != column.kind.value:
            raise StoreError(f"stored reservoir column {entry['name']!r} changed kind")
        if isinstance(column, NumericColumn):
            keys.append(decode_buffer(entry["data"], np.dtype(np.int64), "values"))
            continue
        codes = decode_buffer(entry["data"], np.dtype(np.int32), "codes").astype(np.int64)
        if entry.get("dictionary") != "table":
            index = {label: code for code, label in enumerate(column.categories)}
            # The extra -1 maps a missing value (code -1) to itself.
            codes = np.asarray([index[label] for label in json.loads(entry["aux"])] + [-1])[codes]
        keys.append(codes)
    return _row_bytes(keys)


def _table_rows(table: Table) -> dict[bytes, list[int]]:
    """Each distinct row of ``table`` (float64 bits and codes) → the
    ascending positions holding it."""
    rows: dict[bytes, list[int]] = {}
    for position, key in enumerate(_row_bytes([
        column.codes.astype(np.int64)
        if isinstance(column, CategoricalColumn)
        else column.data.view(np.int64)
        for column in table.columns
    ])):
        rows.setdefault(key, []).append(position)
    return rows


def _positions(copied: list[bytes], rows: dict[bytes, list[int]], n_rows: int) -> np.ndarray:
    """Each copied row matched, in order, to the next table row with
    the same bytes: the sorted positions of a copy drawn in row order
    from the first ``n_rows`` rows (a :class:`StoreError` if none fits)."""
    positions, last = [], -1
    for key in copied:
        candidates = rows.get(key, [])
        found = bisect.bisect_right(candidates, last)
        if found == len(candidates) or candidates[found] >= n_rows:
            raise StoreError("a stored reservoir row is not in its table")
        last = candidates[found]
        positions.append(last)
    return np.asarray(positions, dtype=np.int64)


def _position_summaries(conn: sqlite3.Connection, load) -> None:
    """Schema 3 → 4's summary half: each document's copied reservoir
    becomes the positions of its rows in the stored table (``load(name)``,
    the current table: tables are append-only, so its first rows are
    the table at the summary's version).  A summary that cannot be
    matched is deleted; it costs a cold build, never a wrong answer."""
    for (name,) in conn.execute("SELECT DISTINCT table_name FROM summaries").fetchall():
        rows_at, total = {}, 0
        for version, n_rows in conn.execute(
            "SELECT base_version, base_rows FROM tables WHERE name=? UNION ALL "
            "SELECT to_version, n_rows FROM append_log WHERE table_name=? ORDER BY 1",
            (name, name),
        ).fetchall():
            total += n_rows
            rows_at[version] = total
        try:
            table = load(name)
            rows = _table_rows(table)
        except AtlasError:
            table = rows = None
        for version, key, payload in conn.execute(
            "SELECT version, summary_key, payload FROM summaries WHERE table_name=?",
            (name,),
        ).fetchall():
            where = (name, version, key)
            try:
                if table is None or rows is None:
                    raise StoreError(f"stored table {name!r} does not load")
                document = json.loads(payload)
                n_rows = rows_at[version]
                positions = _positions(_copied_rows(document["sample"], table), rows, n_rows)
                document.update(n_rows=n_rows, sample=encode_sample(positions, 0, n_rows))
            except (KeyError, TypeError, ValueError, IndexError, AtlasError):
                conn.execute(
                    "DELETE FROM summaries WHERE table_name=? AND version=? "
                    "AND summary_key=?", where,
                )
            else:
                conn.execute(
                    "UPDATE summaries SET payload=? WHERE table_name=? AND version=? "
                    "AND summary_key=?", (json.dumps(document), *where),
                )


#: Schema version → the in-place migration to the next one.
_MIGRATIONS = {1: _migrate_v1, 2: _migrate_v2, 3: _migrate_v3}


class TableStore:
    """Thread-safe persistent store over one SQLite database.

    ``path`` may be ``":memory:"`` (default; dies with the process) or
    a filesystem path — a later process pointed at the same file sees
    every registered table, its full append history, and the summaries
    written against it.
    """

    def __init__(self, path: str = ":memory:"):
        self._path = str(path)
        # Where reads after close() find a file store.
        self._file = None if self._path == ":memory:" else os.path.abspath(self._path)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._conn = open_sqlite(self._path)  # guarded-by: _lock
        # Buffers of loaded tables not fetched yet (see _Buffer).
        self._pending: weakref.WeakSet[_Buffer] = weakref.WeakSet()  # guarded-by: _lock
        # Not under _lock: nothing shares the store yet, and the
        # summary migration loads tables through load_table.
        cursor = self._conn.cursor()
        version = cursor.execute("PRAGMA user_version").fetchone()[0]
        if version in _MIGRATIONS:
            # Under the write lock, so a second process opening the
            # same file waits, then finds the store migrated.
            cursor.execute("BEGIN IMMEDIATE")
            version = cursor.execute("PRAGMA user_version").fetchone()[0]
            if version in _MIGRATIONS:
                while version in _MIGRATIONS:
                    _MIGRATIONS[version](self._conn)
                    version += 1
                _position_summaries(self._conn, self.load_table)
            cursor.execute(f"PRAGMA user_version={version}")
        if version == 0:
            cursor.executescript(_CREATE)
            cursor.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
        elif version != _SCHEMA_VERSION:
            raise StoreError(
                f"store database {self._path!r} has schema version "
                f"{version}; this build speaks {_SCHEMA_VERSION}"
            )
        self._conn.commit()

    @property
    def path(self) -> str:
        """Where the store lives (``":memory:"`` or a file path)."""
        return self._path

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register_table(self, table: Table, *, overwrite: bool = False) -> None:
        """Durably record ``table`` (base buffers + schema) under its name.

        The table's current version becomes the stored *base* — replay
        starts there, so registering an already-appended table is fine.
        """
        name = table.name
        # Outside the lock: a table loaded from this store fetches through it.
        rows = [column_row(c) for c in table.columns]
        with self._lock:
            self._check_open()
            exists = self._conn.execute(
                "SELECT 1 FROM tables WHERE name=?", (name,)
            ).fetchone()
            if exists and not overwrite:
                raise StoreError(
                    f"table {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            if exists:
                self._drop_locked(name)
            self._conn.execute(
                "INSERT INTO tables "
                "(name, created, base_version, base_rows, schema) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    name,
                    time.time(),
                    table.version,
                    table.n_rows,
                    json.dumps(table_schema(table)),
                ),
            )
            self._insert_columns_locked(name, table.version, rows)
            self._conn.commit()

    def delete_table(self, name: str) -> None:
        """Remove a table, its append log, and its summaries."""
        with self._lock:
            self._check_open()
            self._drop_locked(name)
            self._conn.commit()

    def _drop_locked(self, name: str) -> None:  # holds-lock: _lock
        self._pin_locked(name)
        self._conn.execute("DELETE FROM tables WHERE name=?", (name,))
        self._conn.execute("DELETE FROM columns WHERE table_name=?", (name,))
        self._conn.execute("DELETE FROM append_log WHERE table_name=?", (name,))
        self._conn.execute("DELETE FROM summaries WHERE table_name=?", (name,))

    def _insert_columns_locked(  # holds-lock: _lock
        self, name: str, version: int, rows: list[tuple]
    ) -> None:
        self._conn.executemany(
            "INSERT INTO columns (table_name, version, position, name, kind, "
            "data, labels, n_labels, label_lengths, checksum) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ((name, version, position, *row) for position, row in enumerate(rows)),
        )

    # ------------------------------------------------------------------ #
    # The append log
    # ------------------------------------------------------------------ #

    def append(
        self,
        name: str,
        delta: Table,
        *,
        from_version: int,
        to_version: int,
    ) -> bool:
        """Durably record one append (the *coerced* delta + version pair).

        Returns True when the entry was applied, False when the exact
        pair was already logged with the same delta (idempotent replay —
        a client retrying through a crash re-issues the same pair and
        nothing doubles).  A pair already logged with a *different*
        delta — another writer on this file appended first — raises
        :class:`AppendConflictError` and records nothing.  A pair past
        the stored history is a gap and raises :class:`StoreError`.
        """
        if to_version != from_version + 1:
            raise StoreError(
                f"append log entries advance one version at a time, got "
                f"{from_version} -> {to_version}"
            )
        rows = [column_row(column) for column in delta.columns]
        digest = _digest(rows)
        with self._lock:
            self._check_open()
            current = self._current_version_locked(name)
            if to_version <= current:
                logged = self._conn.execute(
                    "SELECT digest FROM append_log WHERE table_name=? "
                    "AND from_version=? AND to_version=?",
                    (name, from_version, to_version),
                ).fetchone()
                if logged is None or logged["digest"] != digest:
                    raise AppendConflictError(
                        f"append {from_version}->{to_version} on {name!r} "
                        f"conflicts with the stored history (current "
                        f"version {current}); it was not applied"
                    )
                return False  # exact replay: already durable
            if from_version != current:
                raise StoreError(
                    f"append on {name!r} starts at version {from_version}, "
                    f"but the stored history ends at {current}"
                )
            # Log row and delta buffers land in one transaction: a
            # crash mid-append leaves both or neither, never a log row
            # whose buffers are missing.
            self._conn.execute(
                "INSERT INTO append_log (table_name, from_version, "
                "to_version, created, n_rows, digest) VALUES (?, ?, ?, ?, ?, ?)",
                (name, from_version, to_version, time.time(), delta.n_rows, digest),
            )
            self._insert_columns_locked(name, to_version, rows)
            self._conn.commit()
            return True

    def _current_version_locked(self, name: str) -> int:  # holds-lock: _lock
        row = self._conn.execute(
            "SELECT base_version FROM tables WHERE name=?", (name,)
        ).fetchone()
        if row is None:
            raise StoreError(f"unknown stored table {name!r}")
        latest = self._conn.execute(
            "SELECT MAX(to_version) AS v FROM append_log WHERE table_name=?",
            (name,),
        ).fetchone()
        if latest["v"] is None:
            return int(row["base_version"])
        return int(latest["v"])

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def table_names(self) -> list[str]:
        """Registered table names, sorted."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT name FROM tables ORDER BY name"
            ).fetchall()
        return [row["name"] for row in rows]

    def has_table(self, name: str) -> bool:
        """True when ``name`` is registered."""
        with self._lock:
            self._check_open()
            return (
                self._conn.execute(
                    "SELECT 1 FROM tables WHERE name=?", (name,)
                ).fetchone()
                is not None
            )

    def describe(self, name: str) -> dict:
        """Stored metadata for one table (JSON-ready)."""
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT * FROM tables WHERE name=?", (name,)
            ).fetchone()
            if row is None:
                raise StoreError(f"unknown stored table {name!r}")
            appends = self._conn.execute(
                "SELECT COUNT(*) AS n, COALESCE(SUM(n_rows), 0) AS rows "
                "FROM append_log WHERE table_name=?",
                (name,),
            ).fetchone()
            current = self._current_version_locked(name)
            n_summaries = self._conn.execute(
                "SELECT COUNT(*) AS n FROM summaries WHERE table_name=?",
                (name,),
            ).fetchone()["n"]
        return {
            "name": name,
            "created": row["created"],
            "base_version": row["base_version"],
            "version": current,
            "n_rows": row["base_rows"] + appends["rows"],
            "appends": appends["n"],
            "summaries": n_summaries,
            "schema": json.loads(row["schema"]),
        }

    def load_table(self, name: str) -> Table:
        """The current table: stored base + full append-log replay.

        Buffers load on first use.  Replay goes through
        :meth:`repro.dataset.table.Table.append` with the recorded
        coerced deltas (loading what it concatenates), so versions, row
        order, and categorical dictionary-union order all come back
        bit-identical to the table the writing process last held.
        """
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT created, base_version, base_rows FROM tables WHERE name=?",
                (name,),
            ).fetchone()
            if row is None:
                raise StoreError(f"unknown stored table {name!r}")
            log = self._conn.execute(
                "SELECT from_version, to_version, n_rows FROM append_log "
                "WHERE table_name=? ORDER BY to_version",
                (name,),
            ).fetchall()
            n_rows = {int(row["base_version"]): int(row["base_rows"])}
            n_rows.update((entry["to_version"], entry["n_rows"]) for entry in log)
            by_version: dict[int, list] = {version: [] for version in n_rows}
            for meta in self._conn.execute(
                "SELECT rowid, version, name, kind, n_labels, length(data) AS size "
                "FROM columns WHERE table_name=? ORDER BY version, position",
                (name,),
            ):
                if meta["version"] in by_version:
                    by_version[meta["version"]].append(self._column_locked(
                        name, row["created"], n_rows[meta["version"]], meta
                    ))
        for version, columns in by_version.items():
            if not columns:
                raise StoreError(
                    f"stored table {name!r} has no column buffers at version {version}"
                )
        table = Table(by_version[int(row["base_version"])], name=name)
        table._version = int(row["base_version"])
        for entry in log:
            if entry["from_version"] != table.version:
                raise StoreError(
                    f"append log of {name!r} has a gap: entry starts at "
                    f"{entry['from_version']}, table is at {table.version}"
                )
            delta = Table(by_version[entry["to_version"]], name=f"{name}_delta")
            table = table.append(delta)
        return table

    def _column_locked(  # holds-lock: _lock
        self, name: str, created: float, n_rows: int, meta: sqlite3.Row
    ) -> Column:
        """One column row's column, its buffer and label text deferred."""
        where = f"column {meta['name']!r} of stored table {name!r} at version {meta['version']}"
        key = (meta["rowid"], name, created)
        data = _Buffer(key, "data", meta["size"], where)
        text = _Buffer(key, "labels, label_lengths, checksum", None, where)
        self._pending.add(data)
        if meta["kind"] == "categorical":
            self._pending.add(text)
        return stored_column(
            meta["name"], meta["kind"], n_rows, meta["size"], meta["n_labels"], where,
            lambda: self._fetch(data)[0], lambda: self._fetch(text),
        )

    def _fetch(self, buffer: _Buffer) -> tuple:
        with self._lock:
            if buffer.pinned is None:
                buffer.pinned = self._select_locked(buffer)
            return buffer.pinned

    def _select_locked(self, buffer: _Buffer) -> tuple:  # holds-lock: _lock
        """``buffer``'s row, guarded by its table's ``created`` stamp and
        its byte size, read after close() through a read-only connection."""
        query = (
            f"SELECT {buffer.fields} FROM columns JOIN tables ON tables.name=table_name "
            "WHERE columns.rowid=? AND table_name=? AND created=?"
        )
        try:
            if not self._closed:
                row = self._conn.execute(query, buffer.key).fetchone()
            elif self._file is None:
                raise StoreError(f"store {self._path!r} is closed")
            else:
                uri = Path(self._file).as_uri() + "?mode=ro"
                with contextlib.closing(sqlite3.connect(uri, uri=True)) as conn:
                    row = conn.execute(query, buffer.key).fetchone()
        except sqlite3.Error as exc:
            raise StoreError(f"cannot read {buffer.where}: {exc}") from exc
        if row is None or (buffer.size is not None and len(row[0]) != buffer.size):
            raise StoreError(f"{buffer.where} was replaced after it was loaded")
        return tuple(row)

    def _pin_locked(self, name: str | None = None) -> None:  # holds-lock: _lock
        """Fetch every deferred buffer (of table ``name``, or all) before
        its row goes; one that fails then fails on first use."""
        for buffer in list(self._pending):
            if buffer.pinned is None and name in (None, buffer.key[1]):
                with contextlib.suppress(StoreError):
                    buffer.pinned = self._select_locked(buffer)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def put_summary(
        self, name: str, version: int, summary_key: str, payload: dict
    ) -> None:
        """Upsert one serialized sketch summary for ``(name, version)``."""
        with self._lock:
            self._check_open()
            if (
                self._conn.execute(
                    "SELECT 1 FROM tables WHERE name=?", (name,)
                ).fetchone()
                is None
            ):
                raise StoreError(
                    f"cannot store a summary for unregistered table {name!r}"
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO summaries "
                "(table_name, version, summary_key, created, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, version, summary_key, time.time(), json.dumps(payload)),
            )
            self._conn.commit()

    def get_summary(
        self, name: str, version: int, summary_key: str
    ) -> dict | None:
        """The stored summary document, or None."""
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT payload FROM summaries WHERE table_name=? "
                "AND version=? AND summary_key=?",
                (name, version, summary_key),
            ).fetchone()
        if row is None:
            return None
        return json.loads(row["payload"])

    def has_summary(self, name: str, version: int, summary_key: str) -> bool:
        """True when a summary is stored under the key (payload unread)."""
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT 1 FROM summaries WHERE table_name=? "
                "AND version=? AND summary_key=?",
                (name, version, summary_key),
            ).fetchone()
        return row is not None

    def summary_keys(self, name: str) -> list[tuple[int, str]]:
        """Every stored ``(version, summary_key)`` pair for a table."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT version, summary_key FROM summaries "
                "WHERE table_name=? ORDER BY version, summary_key",
                (name,),
            ).fetchall()
        return [(int(r["version"]), r["summary_key"]) for r in rows]

    # ------------------------------------------------------------------ #
    # Text search
    # ------------------------------------------------------------------ #

    def search(
        self,
        name: str,
        column: str,
        text: str,
        *,
        mode: str = "match",
        limit: int = 100,
    ) -> list[str]:
        """Stored labels of ``column`` matching ``text``, sorted.

        ``mode="match"`` keeps the labels holding every token of
        :func:`repro.query.predicate.tokenize_text`, ``mode="contains"``
        the ones holding ``text`` in any case: the labels the
        corresponding :class:`~repro.query.predicate.Predicate` masks
        admit, found by the same scan over every stored version's
        dictionary.
        """
        predicates = {"match": MatchPredicate, "contains": ContainsPredicate}
        if mode not in predicates:
            raise StoreError(f"unknown search mode {mode!r}")
        try:
            predicate = predicates[mode](column, text)
        except PredicateError as exc:
            raise StoreError(f"cannot search {column!r} for {text!r}: {exc}") from exc
        with self._lock:
            self._check_open()
            self._current_version_locked(name)  # a typed error if unknown
            rows = self._conn.execute(
                "SELECT version, n_labels, labels, label_lengths, checksum "
                "FROM columns WHERE table_name=? AND name=? AND kind='categorical'",
                (name, column),
            ).fetchall()
        found: set[str] = set()
        for version, n_labels, *text in rows:
            where = f"column {column!r} of stored table {name!r} at version {version}"
            dictionary = stored_dictionary(n_labels, lambda text=text: text, where)
            admitted = predicate.admitted(dictionary).nonzero()[0]
            labels = dictionary.labels
            found.update(labels[code] for code in admitted.tolist())
        return sorted(found)[: max(1, int(limit))]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:  # holds-lock: _lock
        if self._closed:
            raise StoreError(f"store {self._path!r} is closed")

    def close(self) -> None:
        """Close the underlying connection (idempotent).  Tables loaded
        from a ``":memory:"`` store read their buffers in first."""
        with self._lock:
            if not self._closed:
                if self._path == ":memory:":
                    self._pin_locked()
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "TableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
