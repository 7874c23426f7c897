"""Warm-start summaries: persist built sketch state, restore it ready.

A :class:`~repro.engine.backends.SketchBackend` answers everything from
one :class:`~repro.sketch.state.SketchState` — its reservoir sample and
its per-attribute GK / Misra–Gries / token summaries.  A
:class:`SketchSummary` is that state under a ``(table_name, key,
fidelity)`` header, and it serializes: the reservoir through
:mod:`repro.store.codec`, the sketches through their own
``to_dict``/``from_dict``.  :func:`extract_summary` captures the state
:meth:`~repro.engine.backends.SketchBackend.export_state` returns,
:func:`restore_backend` hands it back to a fresh backend, which answers
*identically* to the one it was captured from — every estimate flows
through the reservoir rows or the seeded sketch dictionaries, and any
sketch missing from the capture rebuilds lazily from the
(bit-identical) restored reservoir.

The :func:`summary_key` names the statistical identity of a summary:
fidelity spec, seed, and shard count — with workers canonicalized out,
because the worker count never changes an answer (PR 6's bit-identity
contract), while the shard layout does (serial and sharded builds
sample differently).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Mapping

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.dataset.table import Table
from repro.engine.backends import CacheCounters, SketchBackend
from repro.errors import StoreError
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch
from repro.sketch.state import SketchState
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
    """A ``(table_name, key, fidelity)`` header over one sketch state.

    ``state`` is what :meth:`SketchBackend.export_state` returned; the
    document stores its sample, summaries, ``version`` and
    ``full_scan``.  It does not repeat label text: :meth:`to_dict`
    writes a reservoir column whose dictionary equals ``base``'s (the
    summarized table) as codes only, and a summary read from a document
    keeps its reservoir encoded until :func:`restore_backend` binds it
    to the live table's labels.
    """

    def __init__(
        self,
        table_name: str,
        key: str,
        fidelity: str,
        state: SketchState,
        base: Table | None = None,
    ) -> None:
        self.table_name = table_name
        self.key = key
        self.fidelity = fidelity
        self.state = state
        self._base = base

    @property
    def sample(self) -> Table:
        """The reservoir (a :class:`StoreError` while it awaits the table
        whose label dictionaries it borrows)."""
        return self.bind(None)

    def bind(self, table: Table | None) -> Table:
        """The reservoir, borrowed dictionaries bound to ``table``'s."""
        sample = self.state.sample
        if isinstance(sample, dict):
            return decode_table_payload(sample, base=table)
        return sample

    def to_dict(self) -> dict:
        """JSON-ready document (inverse of :meth:`from_dict`)."""
        state = self.state
        sample = state.sample
        return {
            "kind": _SUMMARY_KIND,
            "table_name": self.table_name,
            "version": state.version,
            "key": self.key,
            "fidelity": self.fidelity,
            "full_scan": state.full_scan,
            "sample": sample
            if isinstance(sample, dict)
            else encode_table_payload(sample, self._base),
            "quantiles": _sketch_dicts(state.quantiles),
            "frequencies": _sketch_dicts(state.frequencies),
            "tokens": _sketch_dicts(state.tokens),
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
            key=data["key"],
            fidelity=data["fidelity"],
            state=SketchState(
                sample=data["sample"],  # decoded by bind(), against the table
                n_rows=0,  # not stored; restore_backend reads the table's
                version=int(data["version"]),
                full_scan=bool(data["full_scan"]),
                quantiles=_sketches(data["quantiles"], GKQuantileSketch),
                frequencies=_sketches(data["frequencies"], MisraGriesSketch),
                tokens=_sketches(data["tokens"], MisraGriesSketch),
            ),
        )


def _sketch_dicts(sketches: Mapping[str, Any]) -> dict[str, dict]:
    return {attr: sketch.to_dict() for attr, sketch in sorted(sketches.items())}


def _sketches(payloads: dict, reader: Any) -> dict[str, Any]:
    return {attr: reader.from_dict(data) for attr, data in payloads.items()}


def extract_summary(
    backend: SketchBackend, *, table_name: str, key: str
) -> SketchSummary:
    """Capture a backend's built state as a persistable summary."""
    state = backend.export_state()
    base = backend.table  # lends its labels unless an append raced the capture
    return SketchSummary(
        table_name=table_name,
        key=key,
        fidelity=backend.fidelity.spec(),
        state=state,
        base=base if base.version == state.version else None,
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
    state = summary.state
    if table.version != state.version:
        raise StoreError(
            f"summary for {summary.table_name!r} was captured at version "
            f"{state.version}, table is at {table.version}"
        )
    sample = summary.bind(table)
    if sample.n_rows > table.n_rows:
        raise StoreError(
            f"summary reservoir has {sample.n_rows} rows, more "
            f"than the table's {table.n_rows}"
        )
    if sample.n_rows == table.n_rows:
        # The budget covered everything: the reservoir *is* the table.
        # Hand the live table over so identity-keyed memos line up.
        sample = table
    return SketchBackend(
        table,
        Fidelity.parse(summary.fidelity),
        counters=counters,
        lock=lock,
        state=dataclasses.replace(
            state,
            sample=sample,
            n_rows=table.n_rows,
            provenance={"warm": True, "full_scan_summaries": state.full_scan},
        ),
    )
