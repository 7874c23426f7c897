"""A persistent, per-request query-history store.

Every request the service sees — answered, cached, shed, failed, or
deadline-cancelled — leaves one row here, so operators can ask "what
has tenant X been running and how did it go" (`/history`), and so the
session-aware prefetching planned in ROADMAP item 4 has transition data
to learn from.

Backed by stdlib ``sqlite3``: a file path makes the history survive
service restarts (WAL journal, ``busy_timeout``, ``synchronous=NORMAL``
— the Paper-Scanner pragmas); the default ``":memory:"`` keeps tests
and throwaway services free of disk state.  One connection guarded by
one lock: history writes are two tiny statements per request, far off
the pipeline's critical path, and a single writer sidesteps SQLite's
multi-writer contention entirely.

Statuses walk a small per-request machine::

    running ──> completed | cached | failed | deadline_exceeded
    (terminal on arrival: rejected | rate_limited | unauthorized)
"""

from __future__ import annotations

import json
import threading
import time

from repro.store.store import open_sqlite

#: Every status a history row can carry.
STATUSES = (
    "running",
    "completed",
    "cached",
    "failed",
    "deadline_exceeded",
    "rejected",
    "rate_limited",
    "unauthorized",
)

#: Statuses a request can be *born* with (shed before any work ran).
TERMINAL_ON_ARRIVAL = ("rejected", "rate_limited", "unauthorized")

_SCHEMA_VERSION = 1

_CREATE = """
CREATE TABLE IF NOT EXISTS query_history (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    created REAL NOT NULL,
    tenant TEXT NOT NULL,
    table_name TEXT NOT NULL,
    query TEXT,
    fidelity TEXT,
    status TEXT NOT NULL,
    elapsed REAL,
    detail TEXT
);
CREATE INDEX IF NOT EXISTS idx_history_tenant
    ON query_history (tenant, id);
CREATE INDEX IF NOT EXISTS idx_history_status
    ON query_history (status, id);
"""


class QueryHistory:
    """Thread-safe request journal over one SQLite database.

    ``path`` may be ``":memory:"`` (default; dies with the process) or
    a filesystem path (the history survives restarts and is shared by
    any later service pointed at the same file).
    """

    def __init__(self, path: str = ":memory:", *, max_rows: int = 100_000):
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self._path = str(path)
        self._max_rows = max_rows
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._conn = open_sqlite(self._path)  # guarded-by: _lock
        with self._lock:
            cursor = self._conn.cursor()
            version = cursor.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                cursor.executescript(_CREATE)
                cursor.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
            elif version != _SCHEMA_VERSION:
                raise ValueError(
                    f"history database {self._path!r} has schema version "
                    f"{version}; this build speaks {_SCHEMA_VERSION}"
                )
            self._conn.commit()

    @property
    def path(self) -> str:
        """Where the history lives (``":memory:"`` or a file path)."""
        return self._path

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def record(
        self,
        *,
        tenant: str,
        table: str,
        query: str | None = None,
        fidelity: str | None = None,
        status: str = "running",
    ) -> int:
        """Insert one request row; returns its id for :meth:`finish`."""
        if status not in STATUSES:
            raise ValueError(f"unknown history status {status!r}")
        with self._lock:
            if self._closed:
                # A request racing shutdown loses its journal row; the
                # caller must not crash over lost observability.
                return 0
            cursor = self._conn.execute(
                "INSERT INTO query_history "
                "(created, tenant, table_name, query, fidelity, status) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (time.time(), tenant, table, query, fidelity, status),
            )
            self._trim_locked()
            self._conn.commit()
            entry_id = cursor.lastrowid
            assert entry_id is not None  # AUTOINCREMENT always assigns
            return entry_id

    def finish(
        self,
        entry_id: int,
        status: str,
        *,
        elapsed: float | None = None,
        detail: dict | None = None,
    ) -> None:
        """Move a row to its terminal status (+wall clock, +context)."""
        if status not in STATUSES:
            raise ValueError(f"unknown history status {status!r}")
        with self._lock:
            if self._closed:
                return
            self._conn.execute(
                "UPDATE query_history SET status=?, elapsed=?, detail=? "
                "WHERE id=?",
                (
                    status,
                    elapsed,
                    json.dumps(detail) if detail else None,
                    entry_id,
                ),
            )
            self._conn.commit()

    def _trim_locked(self) -> None:  # holds-lock: _lock
        self._conn.execute(
            "DELETE FROM query_history WHERE id <= ("
            "SELECT MAX(id) FROM query_history) - ?",
            (self._max_rows,),
        )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def recent(
        self,
        limit: int = 50,
        *,
        tenant: str | None = None,
        status: str | None = None,
    ) -> list[dict]:
        """Newest-first rows, optionally filtered (JSON-ready dicts)."""
        limit = max(1, min(int(limit), 1000))
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            if self._closed:
                return []
            rows = self._conn.execute(
                "SELECT * FROM query_history "
                f"{where} ORDER BY id DESC LIMIT ?",
                (*params, limit),
            ).fetchall()
        entries = []
        for row in rows:
            entry = dict(row)
            entry["table"] = entry.pop("table_name")
            if entry.get("detail"):
                entry["detail"] = json.loads(entry["detail"])
            entries.append(entry)
        return entries

    def counts(self) -> dict[str, int]:
        """Row count per status (the ``/metrics`` history block)."""
        with self._lock:
            if self._closed:
                return {}
            rows = self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM query_history "
                "GROUP BY status"
            ).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def __len__(self) -> int:
        with self._lock:
            if self._closed:
                return 0
            row = self._conn.execute(
                "SELECT COUNT(*) AS n FROM query_history"
            ).fetchone()
        return int(row["n"])

    def close(self) -> None:
        """Close the underlying connection (idempotent; later writes
        become no-ops so requests racing a shutdown cannot crash)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "QueryHistory":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
