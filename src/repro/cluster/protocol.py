"""The shard-server wire protocol: JSON shapes for own/scan.

The cluster speaks the same dialect as the PR-2 service protocol —
symmetric ``to_dict``/``from_dict`` dataclasses, typed errors with an
HTTP face — over two POST routes a :class:`~repro.cluster.shard.ShardServer`
exposes:

====== ========== =====================================================
Method Path       Meaning
====== ========== =====================================================
POST   /own       take ownership of one shard's column values
POST   /scan      scan a list of owned shards (one request per server)
GET    /health    liveness + protocol version
GET    /shards    owned shards (table, shard, row range, version)
GET    /metrics   scan requests, shards scanned, rows owned, seconds
====== ========== =====================================================

Ownership is **lazy and versioned**: a scan listing shard state the
server does not hold answers one typed 409
(:class:`~repro.service.protocol.StaleShardError`) whose
``detail["stale"]`` lists the stale shard indices; the coordinator
pushes exactly those through ``/own`` and sends the scan again.  A
freshly started coordinator therefore *re-attaches* to running
servers (its first scan simply succeeds against state a previous
coordinator pushed), and a build over an appended table heals the same
way: its shard ranges and version differ from what the servers hold,
so each shard is pushed once at the new version.

Arrays travel as **raw little-endian numpy buffers, base64 in the JSON
body**; each buffer's dtype is fixed by the field that carries it,
never declared on the wire:

* ``/own`` — a numeric attribute is its shard's float64 values
  (``NaN`` for missing); a categorical is its int32 code slice (``-1``
  for missing) plus the column's whole dictionary and the Misra–Gries
  capacity computed once by the coordinator.  That is exactly the
  ``(codes, categories)`` payload the local venues scan
  (:func:`repro.engine.parallel.shard_column_values`), so a scan on a
  server runs the same kernels on the same buffers as a local worker.
* ``/scan`` answer — per shard (a one-shard
  :class:`~repro.sketch.state.SketchState`), each GK summary as float64
  ``values`` and int64 ``g`` / ``delta`` buffers, the row sample as an
  ``np.packbits`` bitmap over the shard's rows ``[low, high)``
  (:func:`~repro.sketch.state.encode_sample`, the stored summary's
  form too), and each Misra–Gries summary in its small ``to_dict``
  form.

Both directions are validated at decode: a malformed request is a
typed 400 :class:`~repro.service.protocol.ProtocolError` naming the
table, shard and column; a malformed answer is a
:class:`~repro.errors.SketchError` the coordinator treats as the
server's failure (retry once, then 503).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.errors import SketchError
from repro.service.protocol import ProtocolError
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch
from repro.sketch.state import (
    SketchState, decode_buffer, decode_sample, encode_buffer, encode_sample,
)

#: Bumped on incompatible shard-wire changes; ``/health`` reports it.
CLUSTER_PROTOCOL_VERSION = 3

_FLOAT64 = np.dtype("<f8")
_INT64 = np.dtype("<i8")
_INT32 = np.dtype("<i4")


# ---------------------------------------------------------------------- #
# Request decoding (server side: every failure is a typed 400)
# ---------------------------------------------------------------------- #


def _object(data: object, what: str) -> dict:
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(data).__name__}"
        )
    return data


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(data: dict, key: str, kind: type) -> Any:
    """``data[key]``, required and of JSON type ``kind``.

    ``bool`` is never an ``int`` here, and an ``int`` is accepted where
    a ``float`` is asked for.
    """
    if key not in data:
        raise ProtocolError(f"shard payload is missing {key!r}")
    value = data[key]
    accepted: tuple[type, ...] = (int, float) if kind is float else (kind,)
    if not isinstance(value, accepted) or (
        kind is not bool and isinstance(value, bool)
    ):
        raise ProtocolError(
            f"shard payload field {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return float(value) if kind is float else value


#: Row indices are int64 on both sides of the wire.
_MAX_ROW = 2**63 - 1


def _check_shard(index: int, low: int, high: int, where: str) -> None:
    if index < 0:
        raise ProtocolError(f"{where}: shard index must be >= 0")
    if not 0 <= low <= high <= _MAX_ROW:
        raise ProtocolError(
            f"{where}: row range [{low}, {high}) is negative or "
            "overflows int64"
        )


@dataclasses.dataclass(frozen=True)
class OwnShardRequest:
    """Push one shard's column values to the server that owns it."""

    table: str
    shard: int
    #: Half-open global row range ``[low, high)`` this shard covers.
    low: int
    high: int
    #: The table's streaming version these values reflect.
    version: int
    #: Attribute → the shard's float64 values (``NaN`` for missing).
    numeric: dict[str, np.ndarray]
    #: ``(attribute, mg_capacity, (codes, dictionary))``: the shard's
    #: int32 code slice (``-1`` = missing) and the column's dictionary.
    categorical: tuple[tuple[str, int, tuple[np.ndarray, list[str]]], ...]

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "shard": self.shard,
            "low": self.low,
            "high": self.high,
            "version": self.version,
            "numeric": {
                name: encode_buffer(values, _FLOAT64)
                for name, values in self.numeric.items()
            },
            "categorical": [
                [name, capacity, encode_buffer(codes, _INT32),
                 list(dictionary)]
                for name, capacity, (codes, dictionary) in self.categorical
            ],
        }

    @classmethod
    def from_dict(cls, data: object) -> "OwnShardRequest":
        """Decode and validate a push: every buffer must cover exactly
        the shard's ``high - low`` rows."""
        data = _object(data, "an /own body")
        table = _field(data, "table", str)
        shard = _field(data, "shard", int)
        where = f"shard {shard} of table {table!r}"
        low, high = _field(data, "low", int), _field(data, "high", int)
        _check_shard(shard, low, high, where)
        rows = high - low

        def column(name: object, text: object, dtype: np.dtype) -> np.ndarray:
            if not isinstance(name, str):
                raise ProtocolError(f"{where}: column names must be strings")
            try:
                values = decode_buffer(text, dtype, f"column {name!r}")
            except ValueError as exc:
                raise ProtocolError(f"{where}: {exc}") from exc
            if len(values) != rows:
                raise ProtocolError(
                    f"{where}: column {name!r} has {len(values)} values "
                    f"for {rows} rows"
                )
            return values

        numeric = {
            name: column(name, text, _FLOAT64)
            for name, text in _field(data, "numeric", dict).items()
        }
        categorical = []
        for entry in _field(data, "categorical", list):
            if not isinstance(entry, list) or len(entry) != 4:
                raise ProtocolError(
                    f"{where}: a categorical entry must be "
                    "[name, capacity, codes, dictionary]"
                )
            name, capacity, text, dictionary = entry
            codes = column(name, text, _INT32)
            if not _is_int(capacity) or capacity < 1:
                raise ProtocolError(
                    f"{where}: column {name!r} needs a counter capacity "
                    f">= 1, got {capacity!r}"
                )
            if not isinstance(dictionary, list) or not all(
                isinstance(label, str) for label in dictionary
            ) or len(set(dictionary)) != len(dictionary):
                raise ProtocolError(
                    f"{where}: column {name!r} needs a dictionary of "
                    "distinct string labels"
                )
            if len(codes) and (
                codes.min() < -1 or codes.max() >= len(dictionary)
            ):
                raise ProtocolError(
                    f"{where}: column {name!r} has codes outside "
                    f"[-1, {len(dictionary)})"
                )
            categorical.append((name, capacity, (codes, dictionary)))
        return cls(
            table=table,
            shard=shard,
            low=low,
            high=high,
            version=_field(data, "version", int),
            numeric=numeric,
            categorical=tuple(categorical),
        )


@dataclasses.dataclass(frozen=True)
class ScanRequest:
    """Scan a list of one server's owned shards, in one hop.

    Carries everything :func:`repro.engine.parallel.scan_shard_values`
    needs beyond the owned values: the deterministic RNG inputs
    (``seed``, ``fingerprint``) and the sketch recipe, shared by every
    listed shard.  Each ``(index, low, high)`` plus ``version`` doubles
    as the ownership check — a mismatch is a stale shard, not a
    different answer.
    """

    table: str
    version: int
    #: ``table_fingerprint`` of the coordinator's table; keys the
    #: ``"shard:<i>:<fingerprint>"`` RNG stream.
    fingerprint: int
    seed: int
    budget_rows: int
    sample_rows: bool
    epsilon: float
    #: ``(index, low, high)`` per shard, strictly ascending by index.
    shards: tuple[tuple[int, int, int], ...]

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "budget_rows": self.budget_rows,
            "sample_rows": self.sample_rows,
            "epsilon": self.epsilon,
            "shards": [list(shard) for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: object) -> "ScanRequest":
        """Decode and validate a scan: the recipe must be one a build
        could send, and the shard list non-empty and ascending."""
        data = _object(data, "a /scan body")
        table = _field(data, "table", str)
        seed = _field(data, "seed", int)
        budget_rows = _field(data, "budget_rows", int)
        epsilon = _field(data, "epsilon", float)
        if seed < 0:
            raise ProtocolError(f"scan seed must be >= 0, got {seed}")
        if budget_rows < 1:
            raise ProtocolError(
                f"scan budget_rows must be >= 1, got {budget_rows}"
            )
        if not 0.0 < epsilon < 1.0:
            raise ProtocolError(
                f"scan epsilon must be in (0, 1), got {epsilon}"
            )
        shards = []
        for entry in _field(data, "shards", list):
            if not (
                isinstance(entry, list) and len(entry) == 3
                and all(_is_int(value) for value in entry)
            ):
                raise ProtocolError(
                    "a scanned shard must be [index, low, high] integers"
                )
            index, low, high = entry
            _check_shard(index, low, high, f"shard {index} of table {table!r}")
            shards.append((index, low, high))
        indices = [index for index, _, _ in shards]
        if not indices or any(b <= a for a, b in zip(indices, indices[1:])):
            raise ProtocolError(
                "a scan must list one or more shards in strictly "
                f"ascending index order, got {indices}"
            )
        return cls(
            table=table,
            version=_field(data, "version", int),
            fingerprint=_field(data, "fingerprint", int),
            seed=seed,
            budget_rows=budget_rows,
            sample_rows=_field(data, "sample_rows", bool),
            epsilon=epsilon,
            shards=tuple(shards),
        )


# ---------------------------------------------------------------------- #
# The /scan answer (coordinator side: every failure is a SketchError)
# ---------------------------------------------------------------------- #


def _encode_statistics(state: SketchState, low: int) -> dict:
    quantiles = {}
    for attribute, sketch in state.quantiles.items():
        values, g, delta = sketch.arrays()
        quantiles[attribute] = {
            "epsilon": sketch.epsilon,
            "count": sketch.count,
            "values": encode_buffer(values, _FLOAT64),
            "g": encode_buffer(g, _INT64),
            "delta": encode_buffer(delta, _INT64),
        }
    return {
        "index": state.provenance["shard"],
        "n_rows": state.n_rows,
        "sample": encode_sample(state.sample, low, state.n_rows),
        "quantiles": quantiles,
        "frequencies": {
            attribute: sketch.to_dict()
            for attribute, sketch in state.frequencies.items()
        },
        "seconds": state.provenance["seconds"],
        "kernel_nanos": dict(state.provenance["kernel_nanos"]),
    }


def encode_scan_answer(
    request: ScanRequest, statistics: Iterable[SketchState]
) -> dict:
    """The ``/scan`` answer: one encoded one-shard state per listed
    shard, in request order."""
    return {
        "statistics": [
            _encode_statistics(shard, low)
            for shard, (_, low, _) in zip(statistics, request.shards)
        ]
    }


def _decode_statistics(
    data: dict, index: int, low: int, high: int
) -> SketchState:
    if int(data["index"]) != index or int(data["n_rows"]) != high - low:
        raise ValueError(
            f"answer for shard {data['index']} ({data['n_rows']} rows) "
            f"where shard {index} ({high - low} rows) was asked"
        )
    quantiles = {}
    for attribute, gk in data["quantiles"].items():
        what = f"quantiles {attribute!r}"
        quantiles[str(attribute)] = GKQuantileSketch.from_arrays(
            gk["epsilon"],
            gk["count"],
            decode_buffer(gk["values"], _FLOAT64, f"{what} values"),
            decode_buffer(gk["g"], _INT64, f"{what} g"),
            decode_buffer(gk["delta"], _INT64, f"{what} delta"),
        )
    return SketchState(
        sample=decode_sample(data["sample"], low, high),
        n_rows=high - low,
        quantiles=quantiles,
        frequencies={
            str(attribute): MisraGriesSketch.from_dict(mg)
            for attribute, mg in data["frequencies"].items()
        },
        full_scan=True,
        provenance={
            "shard": index,
            "seconds": float(data["seconds"]),
            "kernel_nanos": {
                str(k): int(v) for k, v in dict(data["kernel_nanos"]).items()
            },
        },
    )


def decode_scan_answer(
    payload: dict, shards: tuple[tuple[int, int, int], ...]
) -> list[SketchState]:
    """The one-shard states of a ``/scan`` answer, validated against the
    ``(index, low, high)`` shards the request listed.

    Raises :class:`SketchError` for any malformed answer — a missing or
    extra shard, a wrong index, a bad buffer, an inconsistent sketch.
    """
    try:
        entries = payload["statistics"]
        if not isinstance(entries, list) or len(entries) != len(shards):
            raise ValueError(
                f"answer carries {len(entries)} statistics for "
                f"{len(shards)} shards"
            )
        return [
            _decode_statistics(entry, index, low, high)
            for entry, (index, low, high) in zip(entries, shards)
        ]
    except (
        KeyError, TypeError, ValueError, AttributeError, OverflowError
    ) as exc:
        raise SketchError(f"malformed shard statistics: {exc!r}") from exc
