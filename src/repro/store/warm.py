"""Warm-start summaries: persist built sketch state, restore it ready.

A :class:`~repro.engine.backends.SketchBackend` answers everything from
one :class:`~repro.sketch.state.SketchState` — its reservoir's row
positions and its per-attribute GK / Misra–Gries / token summaries.  A
:class:`SketchSummary` is that state under a ``(table_name, key,
fidelity)`` header, and it serializes: the positions as the packbits
bitmap a ``/scan`` answer ships (:func:`~repro.sketch.state.encode_sample`),
the sketches through their own ``to_dict``/``from_dict``.  No sampled
row is copied: the table the summary describes holds them.
:func:`extract_summary` captures the state
:meth:`~repro.engine.backends.SketchBackend.export_state` returns,
:func:`restore_backend` hands it back to a fresh backend over the
table, which answers *identically* to the one it was captured from —
the reservoir is the same ``take`` of the same rows, every estimate
flows through it or the seeded sketch dictionaries, and any sketch
missing from the capture rebuilds lazily from it.

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
from repro.errors import AtlasError, StoreError
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch
from repro.sketch.state import SketchState, decode_sample, encode_sample

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
    document stores its sample (as a bitmap over the ``n_rows`` rows it
    was drawn from), summaries, ``n_rows``, ``version`` and
    ``full_scan``.  It repeats no row and no label of the table.
    """

    def __init__(
        self, table_name: str, key: str, fidelity: str, state: SketchState
    ) -> None:
        self.table_name = table_name
        self.key = key
        self.fidelity = fidelity
        self.state = state

    def to_dict(self) -> dict:
        """JSON-ready document (inverse of :meth:`from_dict`)."""
        state = self.state
        return {
            "kind": _SUMMARY_KIND,
            "table_name": self.table_name,
            "version": state.version,
            "key": self.key,
            "fidelity": self.fidelity,
            "full_scan": state.full_scan,
            "n_rows": state.n_rows,
            "sample": encode_sample(state.sample, 0, state.n_rows),
            "quantiles": _sketch_dicts(state.quantiles),
            "frequencies": _sketch_dicts(state.frequencies),
            "tokens": _sketch_dicts(state.tokens),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SketchSummary":
        """Rebuild a summary from :meth:`to_dict` output; any malformed
        document is a :class:`StoreError`."""
        if not isinstance(data, dict) or data.get("kind") != _SUMMARY_KIND:
            kind = data.get("kind") if isinstance(data, dict) else data
            raise StoreError(f"not a sketch summary document: kind={kind!r}")
        try:
            n_rows = int(data["n_rows"])
            return cls(
                table_name=str(data["table_name"]),
                key=str(data["key"]),
                fidelity=Fidelity.parse(data["fidelity"]).spec(),
                state=SketchState(
                    sample=decode_sample(data["sample"], 0, n_rows),
                    n_rows=n_rows,
                    version=int(data["version"]),
                    full_scan=bool(data["full_scan"]),
                    quantiles=_sketches(data["quantiles"], GKQuantileSketch),
                    frequencies=_sketches(data["frequencies"], MisraGriesSketch),
                    tokens=_sketches(data["tokens"], MisraGriesSketch),
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError, AtlasError) as exc:
            raise StoreError(f"malformed sketch summary document: {exc!r}") from exc


def _sketch_dicts(sketches: Mapping[str, Any]) -> dict[str, dict]:
    return {attr: sketch.to_dict() for attr, sketch in sorted(sketches.items())}


def _sketches(payloads: dict, reader: Any) -> dict[str, Any]:
    return {attr: reader.from_dict(data) for attr, data in payloads.items()}


def extract_summary(
    backend: SketchBackend, *, table_name: str, key: str
) -> SketchSummary:
    """Capture a backend's built state as a persistable summary."""
    return SketchSummary(
        table_name=table_name,
        key=key,
        fidelity=backend.fidelity.spec(),
        state=backend.export_state(),
    )


def restore_backend(
    summary: SketchSummary,
    table: Table,
    *,
    counters: CacheCounters | None = None,
    lock: threading.Lock | None = None,
) -> SketchBackend:
    """Turn a summary back into a ready backend over ``table``.

    Construction scans nothing: the reservoir is a ``take`` of the
    sampled rows whose columns each gather on first read, so a query
    fetches only the stored buffers it reads, and the sketch
    dictionaries arrive built.  ``table``
    must be at exactly the version, and hold exactly the rows, the
    summary was captured at (the caller looks summaries up by version,
    so a mismatch means a corrupted store or a mixed-up key).  The
    summary carries no build provenance, so the restored backend's
    ``snapshot()`` has no ``parallel`` block.
    """
    state = summary.state
    if table.version != state.version:
        raise StoreError(
            f"summary for {summary.table_name!r} was captured at version "
            f"{state.version}, table is at {table.version}"
        )
    if table.n_rows != state.n_rows:
        raise StoreError(
            f"summary reservoir for {summary.table_name!r} was drawn from "
            f"{state.n_rows} rows, table has {table.n_rows}"
        )
    return SketchBackend(
        table,
        Fidelity.parse(summary.fidelity),
        counters=counters,
        lock=lock,
        state=dataclasses.replace(
            state,
            provenance={"warm": True, "full_scan_summaries": state.full_scan},
        ),
    )
