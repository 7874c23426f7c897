"""The catalog: one named-table registry shared by every frontend.

Before this module, the service, the cluster coordinator, and the REPL
each tracked "what tables exist and where they come from" separately —
and registration came in three verbs (``register_table`` /
``register_spec`` / ``register_connection``) that differed only in how
they coerced their argument.  :class:`Catalog` collapses all of it:

* **one registry** — name → :class:`~repro.service.sources.TableSource`
  with lazy materialization, generation counters (re-registration
  bumps; result-cache keys carry the pair), and an optional persistence
  flag per name;
* **one verb** — :meth:`register` accepts every source shape: a
  :class:`~repro.dataset.table.Table`, a generator spec ``dict``, any
  :class:`TableSource` (including :class:`~repro.service.sources.
  StoreSource`), or a :mod:`repro.db` connection (one relation by name,
  or all of them);
* **one durability story** — backed by a
  :class:`~repro.store.store.TableStore`, ``persist=True`` writes the
  base table through, :meth:`append` journals every delta (the exact
  coerced rows, version pair and all), and sketch summaries round-trip
  via :meth:`warm_factory` / :meth:`persist_summary`, so the *next*
  process over the same store file answers its first explore from
  loaded state instead of a rescan.

A catalog opened over a non-empty store pre-registers every stored
table as a persisted :class:`StoreSource` — restart-and-go.
"""

from __future__ import annotations

from collections.abc import Mapping
from threading import Lock

from repro.core.config import AtlasConfig
from repro.dataset.table import Table
from repro.db.connection import Connection
from repro.errors import StoreError
from repro.service.protocol import ProtocolError, UnknownTableError
from repro.service.sources import (
    ConnectionSource,
    InMemorySource,
    StoreSource,
    TableSource,
    build_table,
)
from repro.store import (
    SketchSummary,
    TableStore,
    extract_summary,
    restore_backend,
    summary_key,
)

#: The source shapes :meth:`Catalog.register` accepts.
SourceLike = "Table | TableSource | Connection | Mapping | dict"


class Catalog:
    """Named table sources, materializations, and persistence — one lock.

    Thread-safe the way the service registry was: sources load outside
    the lock (first materialization wins, so context identity keyed on
    the table object stays stable), appends serialize under it, and a
    re-registration racing a load is detected and retried.  Served
    tables are read without the lock, from a dict republished on every
    change.
    """

    def __init__(self, *, store: TableStore | None = None):
        self._lock = Lock()
        self._store = store
        self._sources: dict[str, TableSource] = {}  # guarded-by: _lock
        #: Name -> ``(table, generation)`` of each materialized table;
        #: republished under ``_lock`` (:meth:`_publish`), read without.
        self._tables: dict[str, tuple[Table, int]] = {}
        #: Per-name registration generation, bumped on every (re-)
        #: registration; result-cache keys carry ``(generation,
        #: version)`` so neither an overwrite nor an append can leave a
        #: stale answer reachable.
        self._generations: dict[str, int] = {}  # guarded-by: _lock
        self._persisted: set[str] = set()  # guarded-by: _lock
        if store is not None:
            for name in store.table_names():
                self._sources[name] = StoreSource(store, name)
                self._generations[name] = 1
                self._persisted.add(name)

    @property
    def store(self) -> TableStore | None:
        """The backing store, if this catalog is durable."""
        return self._store

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: "str | None" = None,
        source: "object | None" = None,
        *,
        overwrite: bool = False,
        persist: bool = False,
    ) -> "str | tuple[str, ...]":
        """Register one source under ``name`` (or its natural name).

        ``source`` may be a :class:`Table`, a generator-spec mapping
        (:func:`~repro.service.sources.build_table` shape), any
        :class:`TableSource`, or a :mod:`repro.db` connection.  A
        connection with ``name`` registers that one relation; with
        ``name=None`` it registers *every* visible relation and
        returns the name tuple (every other shape returns the single
        name).  ``register(table)`` — source first, no name — also
        works, deriving the name from the source.

        ``persist=True`` writes the (materialized) table through to
        the catalog's store and turns on delta/summary write-through
        for its lifetime; a :class:`StoreSource` over the same store
        is already durable and is just marked.
        """
        if source is None:
            name, source = None, name
        if source is None:
            raise ProtocolError("register needs a table source")
        if name is not None and not isinstance(name, str):
            raise ProtocolError(
                f"table name must be a string, got {type(name).__name__}"
            )
        if isinstance(source, Connection):
            if name is not None:
                return self._add(
                    name,
                    ConnectionSource(source, name),
                    overwrite=overwrite,
                    persist=persist,
                )
            return tuple(
                self._add(
                    relation,
                    ConnectionSource(source, relation),
                    overwrite=overwrite,
                    persist=persist,
                )
                for relation in source.table_names()
            )
        if isinstance(source, Table):
            return self._add(
                name or source.name,
                InMemorySource(source),
                overwrite=overwrite,
                persist=persist,
            )
        if isinstance(source, TableSource):
            resolved = name or source.default_name
            if resolved is None:
                raise ProtocolError(
                    f"{type(source).__name__} has no natural name; "
                    "pass one explicitly"
                )
            return self._add(
                resolved, source, overwrite=overwrite, persist=persist
            )
        if isinstance(source, Mapping):
            table = build_table(dict(source))
            return self._add(
                name or table.name,
                InMemorySource(table),
                overwrite=overwrite,
                persist=persist,
            )
        raise ProtocolError(
            "cannot interpret a "
            f"{type(source).__name__} as a table source (expected a "
            "Table, a generator spec, a TableSource, or a Connection)"
        )

    def _add(
        self,
        name: str,
        source: TableSource,
        *,
        overwrite: bool,
        persist: bool,
    ) -> str:
        with self._lock:
            if name in self._sources and not overwrite:
                raise ProtocolError(
                    f"table {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
        table: Table | None = None
        if persist:
            if self._store is None:
                raise StoreError(
                    f"cannot persist {name!r}: this catalog has no store"
                )
            already_durable = (
                isinstance(source, StoreSource)
                and source.store is self._store
            )
            if not already_durable:
                # Write-through needs the rows; materialize now.  The
                # store keys tables by their own name, so serve-name
                # and store-name are kept equal.
                loaded = source.load()
                # The store keys tables by their own name, so the
                # served object and the stored bytes carry the serve
                # name — a restart then resolves the identical table.
                table = (
                    loaded if loaded.name == name else loaded.rename(name)
                )
                self._store.register_table(table, overwrite=overwrite)
        if table is None and isinstance(source, InMemorySource):
            table = source.load()  # free: served from registration on
        with self._lock:
            if name in self._sources and not overwrite:
                raise ProtocolError(
                    f"table {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            self._sources[name] = source
            self._generations[name] = self._generations.get(name, 0) + 1
            # Drop any stale materialization; persisted registrations
            # keep the one just written through so the served object
            # and the stored bytes describe the same rows.
            self._publish(name, table)
            if persist:
                self._persisted.add(name)
            else:
                self._persisted.discard(name)
        return name

    def names(self) -> tuple[str, ...]:
        """Registered table names, registration order."""
        with self._lock:
            return tuple(self._sources)

    def describe(self) -> dict[str, str]:
        """Name → provenance line, for ``/tables`` and diagnostics."""
        with self._lock:
            return {
                name: source.describe()
                for name, source in self._sources.items()
            }

    def is_persisted(self, name: str) -> bool:
        """True when ``name`` write-throughs to the store."""
        with self._lock:
            return name in self._persisted

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #

    def lookup(self, name: str) -> tuple[Table, int] | None:
        """``(table, generation)`` of a materialized table, else None;
        never loads or waits on the lock, so an event loop may call it."""
        return self._tables.get(name)

    def resolve(self, name: str) -> Table:
        """The served table, materializing its source on first use."""
        return self.resolve_with_generation(name)[0]

    def resolve_with_generation(self, name: str) -> tuple[Table, int]:
        """The served table *and* the generation it belongs to, published
        as one pair — a re-registration racing an explore must not pair
        the old tenant's table with the new tenant's generation."""
        while True:
            served = self._tables.get(name)
            if served is not None:
                return served
            with self._lock:
                source = self._sources.get(name)
            if source is None:
                known = ", ".join(self.names()) or "(none registered)"
                raise UnknownTableError(
                    f"unknown table {name!r}; known: {known}"
                )
            table = source.load()
            with self._lock:
                # First materialization wins so context identity is
                # stable; one re-registered while we were loading belongs
                # to the old source and is dropped — resolve again.
                if (
                    self._sources.get(name) is source
                    and name not in self._tables
                ):
                    self._publish(name, table)

    def _publish(self, name: str, table: Table | None) -> None:  # holds-lock: _lock
        tables = {key: pair for key, pair in self._tables.items() if key != name}
        if table is not None:
            tables[name] = (table, self._generations[name])
        self._tables = tables

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def append(
        self,
        name: str,
        rows: "dict | Table",
        on_swap,
    ) -> tuple[Table, Table]:
        """Append rows to a served table, journaling if persisted.

        The whole transition is atomic under the catalog lock: the
        coerced delta is journaled first (durability before
        visibility — a crash between the two replays cleanly, and the
        store's version-pair log makes a retried append a no-op), the
        materialization and source swap to the version-bumped
        successor, and ``on_swap(new_table)`` runs *inside* the
        critical section so the caller can advance its execution
        contexts before any later append starts.  Returns
        ``(old_table, new_table)``.
        """
        self.resolve(name)  # materialize lazy sources / 404
        with self._lock:
            served = self._tables.get(name)
            if served is None:  # re-register racing the append
                raise UnknownTableError(
                    f"table {name!r} was re-registered during the append; "
                    "retry"
                )
            current = served[0]
            delta = current.coerce_delta(rows)
            new_table = current.append(delta)
            if name in self._persisted and self._store is not None:
                self._store.append(
                    name,
                    delta,
                    from_version=current.version,
                    to_version=new_table.version,
                )
            self._sources[name] = InMemorySource(new_table)
            on_swap(new_table)
            # Published last: no reader sees the new version before its
            # contexts have advanced to it.
            self._publish(name, new_table)
        return current, new_table

    # ------------------------------------------------------------------ #
    # Warm-start summaries
    # ------------------------------------------------------------------ #

    def warm_factory(self, name: str, table: Table, config: AtlasConfig):
        """An ``adopt_stats`` factory restoring a persisted summary.

        Returns None unless ``name`` is persisted, the configuration
        sketches without a scope-sample override, and a summary for
        exactly ``(name, table.version, summary_key(config))`` is
        stored — the conditions under which the restored backend is
        guaranteed bit-identical to a fresh build *after its answers*
        (same reservoir, same sketch dictionaries).
        """
        if self._store is None or not self.is_persisted(name):
            return None
        if not config.fidelity.is_sketch or config.sample_size is not None:
            return None
        document = self._store.get_summary(
            name, table.version, summary_key(config)
        )
        if document is None:
            return None

        def factory(target, counters, lock):
            # Decoded here, inside the caller's fallback: a malformed
            # document is a StoreError, and the explore builds cold.
            summary = SketchSummary.from_dict(document)
            return restore_backend(summary, target, counters=counters, lock=lock)

        return factory

    def persist_summary(
        self, name: str, table: Table, backend, config: AtlasConfig
    ) -> bool:
        """Write a built backend's sketch state through to the store.

        Skips (returning False) when the table is not persisted, the
        configuration is not summarizable (exact fidelity or a scope
        sample), or the summary is already stored.  ``backend``
        describes ``table`` (a backend never changes version).
        """
        if self._store is None or not self.is_persisted(name):
            return False
        if not config.fidelity.is_sketch or config.sample_size is not None:
            return False
        key = summary_key(config)
        if self._store.has_summary(name, table.version, key):
            return False
        summary = extract_summary(backend, table_name=name, key=key)
        self._store.put_summary(
            name, summary.state.version, key, summary.to_dict()
        )
        return True
