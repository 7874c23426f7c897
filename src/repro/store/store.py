"""The persistent table store: registered tables, appends, summaries.

One SQLite database (the :class:`~repro.service.history.QueryHistory`
conventions: WAL journal and ``synchronous=NORMAL`` for file paths,
``busy_timeout``, a ``user_version``-gated schema, one connection under
one lock) durably records three things per registered table:

* the **base table** — raw column buffers via :mod:`repro.store.codec`;
* the **append log** — one row per version pair ``(from, to)`` plus the
  coerced delta's column buffers, so a restart replays the exact
  streaming history through :meth:`repro.dataset.table.Table.append`
  and lands on a bit-identical current table.  Replay is idempotent:
  re-issuing an already-logged pair (a client retrying through a crash)
  is a no-op, and the log + buffers commit in one transaction so a
  crash mid-append leaves either both or neither;
* **sketch summaries** — JSON documents keyed ``(table, version,
  summary key)`` holding a serialized reservoir plus its built GK /
  Misra–Gries / token sketches, which :mod:`repro.store.warm` turns
  back into a ready :class:`~repro.engine.backends.SketchBackend` so a
  restarted service answers its first explore without rescanning.

Text columns are additionally indexed in an FTS5 virtual table when
the linked SQLite has the extension (probed at open); :meth:`search`
then answers ``match`` via FTS ``MATCH`` and ``contains`` via ``LIKE``,
falling back to Python-side matching over the stored dictionaries
otherwise — same answers either way, the index is a speedup.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

from repro.dataset.column import CategoricalColumn
from repro.dataset.table import Table
from repro.errors import StoreError
from repro.query.predicate import tokenize_text
from repro.store.codec import column_blob, column_from_blob, table_schema

_SCHEMA_VERSION = 1


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


_CREATE = """
CREATE TABLE IF NOT EXISTS tables (
    name TEXT PRIMARY KEY,
    created REAL NOT NULL,
    base_version INTEGER NOT NULL,
    base_rows INTEGER NOT NULL,
    schema TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS columns (
    table_name TEXT NOT NULL,
    version INTEGER NOT NULL,
    position INTEGER NOT NULL,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    data BLOB NOT NULL,
    aux TEXT,
    PRIMARY KEY (table_name, version, position)
);
CREATE TABLE IF NOT EXISTS append_log (
    table_name TEXT NOT NULL,
    from_version INTEGER NOT NULL,
    to_version INTEGER NOT NULL,
    created REAL NOT NULL,
    n_rows INTEGER NOT NULL,
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

_CREATE_FTS = """
CREATE VIRTUAL TABLE IF NOT EXISTS label_fts
    USING fts5(table_name UNINDEXED, column_name UNINDEXED, label);
"""


def _fts5_available(conn: sqlite3.Connection) -> bool:
    """Probe whether the linked SQLite carries the FTS5 extension."""
    try:
        conn.execute("CREATE VIRTUAL TABLE temp.fts5_probe USING fts5(x)")
        conn.execute("DROP TABLE temp.fts5_probe")
        return True
    except sqlite3.OperationalError:
        return False


class TableStore:
    """Thread-safe persistent store over one SQLite database.

    ``path`` may be ``":memory:"`` (default; dies with the process) or
    a filesystem path — a later process pointed at the same file sees
    every registered table, its full append history, and the summaries
    written against it.
    """

    def __init__(self, path: str = ":memory:"):
        self._path = str(path)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._conn = open_sqlite(self._path)  # guarded-by: _lock
        with self._lock:
            cursor = self._conn.cursor()
            self._fts = _fts5_available(self._conn)
            version = cursor.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                cursor.executescript(_CREATE)
                if self._fts:
                    cursor.executescript(_CREATE_FTS)
                cursor.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
            elif version != _SCHEMA_VERSION:
                raise StoreError(
                    f"store database {self._path!r} has schema version "
                    f"{version}; this build speaks {_SCHEMA_VERSION}"
                )
            elif self._fts:
                # A database created by an FTS-less build gains the
                # index lazily the first time an FTS-capable one opens.
                cursor.executescript(_CREATE_FTS)
            self._conn.commit()

    @property
    def path(self) -> str:
        """Where the store lives (``":memory:"`` or a file path)."""
        return self._path

    @property
    def has_fts(self) -> bool:
        """True when text search is answered by the FTS5 index."""
        return self._fts

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register_table(self, table: Table, *, overwrite: bool = False) -> None:
        """Durably record ``table`` (base buffers + schema) under its name.

        The table's current version becomes the stored *base* — replay
        starts there, so registering an already-appended table is fine.
        """
        name = table.name
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
            self._insert_columns_locked(name, table.version, table)
            self._index_labels_locked(name, table)
            self._conn.commit()

    def delete_table(self, name: str) -> None:
        """Remove a table, its append log, summaries, and text index."""
        with self._lock:
            self._check_open()
            self._drop_locked(name)
            self._conn.commit()

    def _drop_locked(self, name: str) -> None:  # holds-lock: _lock
        self._conn.execute("DELETE FROM tables WHERE name=?", (name,))
        self._conn.execute("DELETE FROM columns WHERE table_name=?", (name,))
        self._conn.execute("DELETE FROM append_log WHERE table_name=?", (name,))
        self._conn.execute("DELETE FROM summaries WHERE table_name=?", (name,))
        if self._fts:
            self._conn.execute(
                "DELETE FROM label_fts WHERE table_name=?", (name,)
            )

    def _insert_columns_locked(  # holds-lock: _lock
        self, name: str, version: int, table: Table
    ) -> None:
        for position, column in enumerate(table.columns):
            kind, blob, aux = column_blob(column)
            self._conn.execute(
                "INSERT INTO columns "
                "(table_name, version, position, name, kind, data, aux) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (name, version, position, column.name, kind, blob, aux),
            )

    def _index_labels_locked(  # holds-lock: _lock
        self, name: str, table: Table
    ) -> None:
        if not self._fts:
            return
        for column in table.columns:
            if not isinstance(column, CategoricalColumn):
                continue
            self._conn.executemany(
                "INSERT INTO label_fts (table_name, column_name, label) "
                "VALUES (?, ?, ?)",
                ((name, column.name, label) for label in column.categories),
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
        pair was already logged (idempotent replay — a client retrying
        through a crash re-issues the same pair and nothing doubles).
        A pair that is neither next nor already logged is a gap and
        raises :class:`StoreError`.
        """
        if to_version != from_version + 1:
            raise StoreError(
                f"append log entries advance one version at a time, got "
                f"{from_version} -> {to_version}"
            )
        with self._lock:
            self._check_open()
            current = self._current_version_locked(name)
            if to_version <= current:
                logged = self._conn.execute(
                    "SELECT from_version FROM append_log "
                    "WHERE table_name=? AND to_version=?",
                    (name, to_version),
                ).fetchone()
                if logged is None or logged["from_version"] != from_version:
                    raise StoreError(
                        f"append {from_version}->{to_version} on {name!r} "
                        f"conflicts with the stored history "
                        f"(current version {current})"
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
                "INSERT INTO append_log "
                "(table_name, from_version, to_version, created, n_rows) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, from_version, to_version, time.time(), delta.n_rows),
            )
            self._insert_columns_locked(name, to_version, delta)
            self._index_labels_locked(name, delta)
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
        """The current table: decoded base + full append-log replay.

        Replay goes through :meth:`repro.dataset.table.Table.append`
        with the recorded coerced deltas, so versions, row order, and
        categorical dictionary-union order all come back bit-identical
        to the table the writing process last held.
        """
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT base_version, base_rows FROM tables WHERE name=?",
                (name,),
            ).fetchone()
            if row is None:
                raise StoreError(f"unknown stored table {name!r}")
            base_version = int(row["base_version"])
            log = self._conn.execute(
                "SELECT from_version, to_version FROM append_log "
                "WHERE table_name=? ORDER BY to_version",
                (name,),
            ).fetchall()
            versions = [base_version] + [r["to_version"] for r in log]
            stored = {
                version: self._column_rows_locked(name, version)
                for version in versions
            }
        # Decoded with the lock released: parsing and validating the
        # dictionaries dominates a load and never touches the connection.
        # Each version's raw rows are dropped as soon as they are decoded.
        decoded = {
            version: [
                column_from_blob(r["name"], r["kind"], r["data"], r["aux"])
                for r in stored.pop(version)
            ]
            for version in versions
        }
        table = Table(decoded[base_version], name=name)
        table._version = base_version
        if table.n_rows != int(row["base_rows"]):
            raise StoreError(
                f"stored base of {name!r} decoded to {table.n_rows} rows, "
                f"expected {row['base_rows']}"
            )
        for entry in log:
            if entry["from_version"] != table.version:
                raise StoreError(
                    f"append log of {name!r} has a gap: entry starts at "
                    f"{entry['from_version']}, table is at {table.version}"
                )
            delta = Table(decoded[entry["to_version"]], name=f"{name}_delta")
            table = table.append(delta)
        return table

    def _column_rows_locked(  # holds-lock: _lock
        self, name: str, version: int
    ) -> list:
        rows = self._conn.execute(
            "SELECT name, kind, data, aux FROM columns "
            "WHERE table_name=? AND version=? ORDER BY position",
            (name, version),
        ).fetchall()
        if not rows:
            raise StoreError(
                f"stored table {name!r} has no column buffers at "
                f"version {version}"
            )
        return rows

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

        ``mode="match"`` is the conjunctive token match of
        :func:`repro.query.predicate.tokenize_text` (answered by FTS5
        ``MATCH`` when available); ``mode="contains"`` is the
        case-insensitive substring test.  Both agree exactly with the
        corresponding :class:`~repro.query.predicate.Predicate` masks —
        the index only changes *how fast* the labels are found.
        """
        if mode not in ("match", "contains"):
            raise StoreError(f"unknown search mode {mode!r}")
        limit = max(1, int(limit))
        if self._fts:
            labels = self._search_fts(name, column, text, mode)
        else:
            labels = self._search_python(name, column, text, mode)
        return sorted(labels)[:limit]

    def _search_fts(
        self, name: str, column: str, text: str, mode: str
    ) -> set[str]:
        if mode == "match":
            terms = tokenize_text(text)
            if not terms:
                raise StoreError("match needs at least one token")
            fts_query = " ".join(f'"{term}"' for term in dict.fromkeys(terms))
            sql = (
                "SELECT DISTINCT label FROM label_fts "
                "WHERE table_name=? AND column_name=? AND label MATCH ?"
            )
            params: tuple = (name, column, fts_query)
        else:
            if not text:
                raise StoreError("contains needs a non-empty needle")
            escaped = (
                text.replace("\\", "\\\\")
                .replace("%", "\\%")
                .replace("_", "\\_")
            )
            sql = (
                "SELECT DISTINCT label FROM label_fts "
                "WHERE table_name=? AND column_name=? "
                "AND label LIKE ? ESCAPE '\\'"
            )
            params = (name, column, f"%{escaped}%")
        with self._lock:
            self._check_open()
            rows = self._conn.execute(sql, params).fetchall()
        found = {row["label"] for row in rows}
        if mode == "match":
            # FTS5's tokenizer can differ from ours on edge cases
            # (unicode, embedded digits); re-filter so the answer is
            # exactly the predicate semantics.
            required = set(tokenize_text(text))
            found = {
                label
                for label in found
                if required <= set(tokenize_text(label))
            }
        return found

    def _search_python(
        self, name: str, column: str, text: str, mode: str
    ) -> set[str]:
        labels = self._stored_labels(name, column)
        if mode == "match":
            required = set(tokenize_text(text))
            if not required:
                raise StoreError("match needs at least one token")
            return {
                label
                for label in labels
                if required <= set(tokenize_text(label))
            }
        if not text:
            raise StoreError("contains needs a non-empty needle")
        needle = text.lower()
        return {label for label in labels if needle in label.lower()}

    def _stored_labels(self, name: str, column: str) -> set[str]:
        """Union of the column's dictionaries across all stored versions."""
        with self._lock:
            self._check_open()
            if (
                self._conn.execute(
                    "SELECT 1 FROM tables WHERE name=?", (name,)
                ).fetchone()
                is None
            ):
                raise StoreError(f"unknown stored table {name!r}")
            rows = self._conn.execute(
                "SELECT aux FROM columns WHERE table_name=? AND name=? "
                "AND kind='categorical'",
                (name, column),
            ).fetchall()
        labels: set[str] = set()
        for row in rows:
            if row["aux"]:
                labels.update(json.loads(row["aux"]))
        return labels

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:  # holds-lock: _lock
        if self._closed:
            raise StoreError(f"store {self._path!r} is closed")

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "TableStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
