"""Warm-start summaries: persist built sketch state, restore it ready.

A :class:`~repro.engine.backends.SketchBackend` answers everything from
two pieces of state — its reservoir sample and its per-attribute
GK / Misra–Gries / token summaries.  Both serialize: the reservoir
through :mod:`repro.store.codec`, the sketches through their own
``to_dict``/``from_dict``.  :func:`extract_summary` captures that state
after a build, :func:`restore_backend` seeds a fresh backend with it
that answers *identically* to the one it was captured from — every
estimate flows through the reservoir rows or the seeded sketch
dictionaries, and any sketch missing from the capture rebuilds lazily
from the (bit-identical) restored reservoir.

The :func:`summary_key` names the statistical identity of a summary:
fidelity spec, seed, and shard count — with workers canonicalized out,
because the worker count never changes an answer (PR 6's bit-identity
contract), while the shard layout does (serial and sharded builds
sample differently).
"""

from __future__ import annotations

import threading

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.dataset.table import Table
from repro.engine.backends import CacheCounters, SketchBackend
from repro.errors import StoreError
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch
from repro.store.codec import decode_table_payload, encode_table_payload

_SUMMARY_KIND = "sketch-summary"


def summary_key(config: AtlasConfig) -> str:
    """The identity string a summary is stored (and looked up) under.

    Two configurations share a key exactly when they are guaranteed
    the same sketch state: same fidelity budget and epsilon, same seed,
    same shard layout.  Workers are canonicalized to 1 — scan
    placement cannot change an answer.
    """
    if not config.fidelity.is_sketch:
        raise StoreError(
            "sketch summaries only exist under a sketch fidelity, got "
            f"{config.fidelity.spec()!r}"
        )
    canonical = Parallelism(workers=1, shards=config.parallelism.shards)
    return f"{config.fidelity.spec()}|seed={config.seed}|{canonical.spec()}"


class SketchSummary:
    """Serialized sketch-backend state for one ``(table, version, key)``.

    ``full_scan`` records whether the captured summaries observed every
    table row (a sharded build) rather than only the reservoir — the
    restored backend must keep merging appends at the same rate.

    The document does not repeat label text: :meth:`to_dict` writes a
    reservoir column whose dictionary equals ``base``'s (the summarized
    table) as codes only, and a summary read from a document keeps its
    reservoir encoded until :func:`restore_backend` binds it to the
    live table's labels.
    """

    def __init__(
        self,
        table_name: str,
        version: int,
        key: str,
        fidelity: str,
        full_scan: bool,
        sample: Table | dict,
        quantiles: dict[str, GKQuantileSketch],
        frequencies: dict[str, MisraGriesSketch],
        tokens: dict[str, MisraGriesSketch],
        base: Table | None = None,
    ) -> None:
        self.table_name = table_name
        self.version = version
        self.key = key
        self.fidelity = fidelity
        self.full_scan = full_scan
        self._sample = sample
        self.quantiles = quantiles
        self.frequencies = frequencies
        self.tokens = tokens
        self._base = base

    @property
    def sample(self) -> Table:
        """The reservoir (a :class:`StoreError` while it awaits the table
        whose label dictionaries it borrows)."""
        return self.bind(None)

    def bind(self, table: Table | None) -> Table:
        """The reservoir, borrowed dictionaries bound to ``table``'s."""
        if isinstance(self._sample, dict):
            return decode_table_payload(self._sample, base=table)
        return self._sample

    def to_dict(self) -> dict:
        """JSON-ready document (inverse of :meth:`from_dict`)."""
        return {
            "kind": _SUMMARY_KIND,
            "table_name": self.table_name,
            "version": self.version,
            "key": self.key,
            "fidelity": self.fidelity,
            "full_scan": self.full_scan,
            "sample": self._sample
            if isinstance(self._sample, dict)
            else encode_table_payload(self._sample, self._base),
            "quantiles": {
                attr: sketch.to_dict()
                for attr, sketch in sorted(self.quantiles.items())
            },
            "frequencies": {
                attr: sketch.to_dict()
                for attr, sketch in sorted(self.frequencies.items())
            },
            "tokens": {
                attr: sketch.to_dict()
                for attr, sketch in sorted(self.tokens.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SketchSummary":
        """Rebuild a summary from :meth:`to_dict` output."""
        if data.get("kind") != _SUMMARY_KIND:
            raise StoreError(
                f"not a sketch summary document: kind={data.get('kind')!r}"
            )
        return cls(
            table_name=data["table_name"],
            version=int(data["version"]),
            key=data["key"],
            fidelity=data["fidelity"],
            full_scan=bool(data["full_scan"]),
            sample=data["sample"],  # decoded by bind(), against the table
            quantiles={
                attr: GKQuantileSketch.from_dict(payload)
                for attr, payload in data["quantiles"].items()
            },
            frequencies={
                attr: MisraGriesSketch.from_dict(payload)
                for attr, payload in data["frequencies"].items()
            },
            tokens={
                attr: MisraGriesSketch.from_dict(payload)
                for attr, payload in data["tokens"].items()
            },
        )


def extract_summary(
    backend: SketchBackend, *, table_name: str, key: str
) -> SketchSummary:
    """Capture a backend's built state as a persistable summary."""
    state = backend.export_state()
    base = backend.table  # lends its labels unless an append raced the capture
    return SketchSummary(
        table_name=table_name,
        version=int(state["version"]),
        key=key,
        fidelity=backend.fidelity.spec(),
        full_scan=bool(state["full_scan"]),
        sample=state["sample"],
        quantiles=dict(state["quantiles"]),  # type: ignore[arg-type]
        frequencies=dict(state["frequencies"]),  # type: ignore[arg-type]
        tokens=dict(state["tokens"]),  # type: ignore[arg-type]
        base=base if base.version == state["version"] else None,
    )


def restore_backend(
    summary: SketchSummary,
    table: Table,
    *,
    counters: CacheCounters | None = None,
    lock: threading.Lock | None = None,
) -> SketchBackend:
    """Turn a summary back into a ready backend over ``table``.

    Construction costs a buffer decode instead of a table scan: the
    reservoir arrives ready and the sketch dictionaries arrive built.
    ``table`` must be at exactly the version the summary was captured
    at (the caller looks summaries up by version, so a mismatch means
    a corrupted store or a mixed-up key).  The summary carries no build
    provenance, so the restored backend's ``snapshot()`` has no
    ``parallel`` block.
    """
    if table.version != summary.version:
        raise StoreError(
            f"summary for {summary.table_name!r} was captured at version "
            f"{summary.version}, table is at {table.version}"
        )
    sample = summary.bind(table)
    if sample.n_rows > table.n_rows:
        raise StoreError(
            f"summary reservoir has {sample.n_rows} rows, more "
            f"than the table's {table.n_rows}"
        )
    fidelity = Fidelity.parse(summary.fidelity)
    if sample.n_rows == table.n_rows:
        # The budget covered everything: the reservoir *is* the table.
        # Hand the live table over so identity-keyed memos line up.
        sample = table
    return SketchBackend(
        table,
        fidelity,
        counters=counters,
        lock=lock,
        sample=sample,
        quantiles=summary.quantiles,
        frequencies=summary.frequencies,
        tokens=summary.tokens,
        full_scan=summary.full_scan,
        provenance={
            "warm": True,
            "full_scan_summaries": summary.full_scan,
        },
    )
