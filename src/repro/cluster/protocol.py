"""The shard-server wire protocol: JSON shapes for own/scan.

The cluster speaks the same dialect as the PR-2 service protocol —
symmetric ``to_dict``/``from_dict`` dataclasses, typed errors with an
HTTP face — over two POST routes a :class:`~repro.cluster.shard.ShardServer`
exposes:

====== ========== =====================================================
Method Path       Meaning
====== ========== =====================================================
POST   /own       take ownership of one shard's column values
POST   /scan      scan an owned shard (sample + full-scan sketches)
GET    /health    liveness + protocol version
GET    /shards    owned shards (table, shard, row range, version)
GET    /metrics   scans served, rows owned, per-scan seconds
====== ========== =====================================================

Ownership is **lazy and versioned**: a scan naming shard state the
server does not hold answers a typed 409
(:class:`~repro.service.protocol.StaleShardError`), and the
coordinator re-pushes ``/own`` and retries.  A freshly started
coordinator therefore *re-attaches* to running servers (its first scan
simply succeeds against state a previous coordinator pushed), and a
build over an appended table heals the same way: its shard ranges and
version differ from what the servers hold, so each shard is pushed
once at the new version.

Column values travel raw: numeric attributes as float lists with
``NaN`` for missing (the Python ``json`` module round-trips the token
losslessly), categoricals as present-value label lists in row order
with the Misra–Gries capacity computed once by the coordinator from
the full dictionary.  These are exactly the streams
:func:`repro.engine.parallel.scan_shard_values` consumes, so a scan on
a server is bit-identical to one in a local worker.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.service.protocol import ProtocolError

#: Bumped on incompatible shard-wire changes; ``/health`` reports it.
CLUSTER_PROTOCOL_VERSION = 2


def _require(data: dict, key: str) -> object:
    if key not in data:
        raise ProtocolError(f"shard payload is missing {key!r}")
    return data[key]


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
    #: Attribute → raw numeric values (``NaN`` for missing).
    numeric: dict[str, list[float]]
    #: ``(attribute, mg_capacity, labels)`` triples; labels are the
    #: present values in row order (missing dropped).
    categorical: list[tuple[str, int, list[str]]]

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "shard": self.shard,
            "low": self.low,
            "high": self.high,
            "version": self.version,
            "numeric": self.numeric,
            "categorical": [
                [name, capacity, labels]
                for name, capacity, labels in self.categorical
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OwnShardRequest":
        return cls(
            table=str(_require(data, "table")),
            shard=int(_require(data, "shard")),
            low=int(_require(data, "low")),
            high=int(_require(data, "high")),
            version=int(_require(data, "version")),
            numeric={
                str(name): [float(v) for v in values]
                for name, values in dict(_require(data, "numeric")).items()
            },
            categorical=[
                (str(name), int(capacity), [str(v) for v in labels])
                for name, capacity, labels in _require(data, "categorical")
            ],
        )


@dataclasses.dataclass(frozen=True)
class ScanRequest:
    """Scan one owned shard into per-shard statistics.

    Carries everything :func:`repro.engine.parallel.scan_shard_values`
    needs beyond the owned values: the deterministic RNG inputs
    (``seed``, ``fingerprint``) and the sketch recipe.  ``low``,
    ``high``, and ``version`` double as the ownership check — a
    mismatch is a stale shard, not a different answer.
    """

    table: str
    shard: int
    low: int
    high: int
    version: int
    #: ``table_fingerprint`` of the coordinator's table; keys the
    #: ``"shard:<i>:<fingerprint>"`` RNG stream.
    fingerprint: int
    seed: int
    budget_rows: int
    sample_rows: bool
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "shard": self.shard,
            "low": self.low,
            "high": self.high,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "budget_rows": self.budget_rows,
            "sample_rows": self.sample_rows,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanRequest":
        return cls(
            table=str(_require(data, "table")),
            shard=int(_require(data, "shard")),
            low=int(_require(data, "low")),
            high=int(_require(data, "high")),
            version=int(_require(data, "version")),
            fingerprint=int(_require(data, "fingerprint")),
            seed=int(_require(data, "seed")),
            budget_rows=int(_require(data, "budget_rows")),
            sample_rows=bool(_require(data, "sample_rows")),
            epsilon=float(_require(data, "epsilon")),
        )


def numeric_to_wire(values: "dict[str, np.ndarray]") -> dict[str, list[float]]:
    """Numpy numeric slices → wire lists (``NaN`` kept, exact floats)."""
    return {
        name: [float(v) for v in array.tolist()]
        for name, array in values.items()
    }


def numeric_from_wire(values: dict[str, list[float]]) -> "dict[str, np.ndarray]":
    """Wire lists → the float64 arrays the scan core consumes."""
    return {
        name: np.asarray(raw, dtype=np.float64)
        for name, raw in values.items()
    }
