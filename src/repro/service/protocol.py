"""The JSON wire protocol of the exploration service.

Every shape that crosses the HTTP boundary lives here, as a symmetric
``to_dict``/``from_dict`` pair extending the serialization contract
pioneered by :class:`~repro.core.config.AtlasConfig`:

* :class:`ExploreRequest` — what a client asks,
* :class:`ExploreResponse` — a :class:`~repro.engine.pipeline.MapSet`
  answer plus service metadata (cache provenance, wall clock),
* :class:`ServiceError` and friends — typed errors carrying an HTTP
  status, serialized by :func:`error_to_dict` on the server and
  resurrected by :func:`error_from_payload` in the client, so a remote
  failure raises the *same* exception type a local call would.

The one lossy edge: a transported ``MapSet`` drops its ``clustering``
(the agglomeration tree is an engine-internal diagnostic, quadratic to
serialize); everything a client consumes — ranked maps, scores, covers,
per-stage timings, sample provenance — survives the round trip.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import AtlasConfig
from repro.core.datamap import DataMap
from repro.core.ranking import RankedMap
from repro.engine.pipeline import MapSet, StageTimings
from repro.errors import AtlasError
from repro.query.query import ConjunctiveQuery

#: Bumped on incompatible wire changes; ``/health`` reports it and the
#: client refuses to talk across versions.
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------- #
# Errors
# ---------------------------------------------------------------------- #


class ServiceError(AtlasError):
    """Base of every service-layer failure; knows its HTTP face.

    ``detail`` is an optional JSON-ready dict of structured context
    that survives the wire round trip — e.g. a 429's ``retry_after``
    seconds, or a 504's ``stages_completed`` boundary proof — so
    clients can react programmatically instead of parsing messages.
    """

    status = 500
    code = "internal"

    def __init__(self, message: str = "", *, detail: dict | None = None):
        super().__init__(message)
        self.detail: dict = dict(detail) if detail else {}


class ProtocolError(ServiceError):
    """A request payload is malformed (bad JSON, missing fields)."""

    status = 400
    code = "bad_request"


class UnknownTableError(ServiceError):
    """The requested table is not registered with the service."""

    status = 404
    code = "unknown_table"


class AdmissionError(ServiceError):
    """Admission control shed the request: queue at capacity (HTTP 429).

    Deliberately cheap — raised before any pipeline work is queued, so
    an overloaded service answers in microseconds and clients can back
    off and retry (:meth:`repro.service.client.ServiceClient.explore`
    does).
    """

    status = 429
    code = "busy"


class RateLimitError(AdmissionError):
    """A tenant exceeded *its own* limit (rate or in-flight cap).

    Still HTTP 429 — and still caught by ``except AdmissionError:`` and
    the client's busy-retry — but the distinct code tells a client "you
    are over your limit" rather than "the service is full".  ``detail``
    carries ``retry_after`` seconds; the HTTP frontends surface it as a
    ``Retry-After`` header.
    """

    status = 429
    code = "rate_limited"


class AuthError(ServiceError):
    """The request's API key is missing or unknown (HTTP 401)."""

    status = 401
    code = "unauthorized"


class DeadlineExceededError(ServiceError):
    """A request's deadline fired before its pipeline finished (504).

    The pipeline stops *cooperatively between stages* (see
    :mod:`repro.engine.cancel`), so ``detail`` proves where:
    ``stages_completed`` fully ran, ``next_stage`` never started, and
    every statistic memoized so far remains valid for later requests.
    """

    status = 504
    code = "deadline_exceeded"


class RemoteServiceError(ServiceError):
    """A server-side failure with no more specific client-side type."""

    status = 500
    code = "internal"


class ShardUnavailableError(ServiceError):
    """A cluster shard server failed mid-query (HTTP 503).

    Raised by the :class:`repro.cluster.ClusterCoordinator` when a
    shard server times out or drops the connection after the one
    permitted retry; the message names the failed shard's index, row
    range, and URL so an operator knows *which* process to look at.
    Defined here — not in :mod:`repro.cluster` — so the error-code
    resurrection maps cover it without the client importing the
    cluster package.
    """

    status = 503
    code = "shard_unavailable"


class StaleShardError(ServiceError):
    """A shard server does not own the requested shard state (HTTP 409).

    The shard-server side of lazy ownership: a scan or append naming a
    ``(table, shard, version)`` the server has not been pushed — or an
    older version than it holds — answers 409, and the coordinator
    re-pushes the shard's columns and retries.  A coordinator restart
    therefore re-attaches to running servers without any handshake.
    """

    status = 409
    code = "stale_shard"


#: Wire ``code`` → exception type, for client-side resurrection.
_ERROR_CODES: dict[str, type[ServiceError]] = {
    cls.code: cls
    for cls in (ProtocolError, UnknownTableError, AdmissionError,
                RateLimitError, AuthError, DeadlineExceededError,
                RemoteServiceError, ShardUnavailableError, StaleShardError)
}


def _known_error_types() -> dict[str, type[Exception]]:
    """Exception classes a client may resurrect by transported name.

    The whitelist is every :class:`AtlasError` subclass the library
    defines plus the service errors above — the exact set a *local*
    call could raise, so ``except QueryError:`` works identically
    against the engine and against the wire.
    """
    import repro.errors as errors_module

    types: dict[str, type[Exception]] = {}
    for name in dir(errors_module):
        obj = getattr(errors_module, name)
        if isinstance(obj, type) and issubclass(obj, AtlasError):
            types[name] = obj
    for cls in (ProtocolError, UnknownTableError, AdmissionError,
                RateLimitError, AuthError, DeadlineExceededError,
                RemoteServiceError, ShardUnavailableError,
                StaleShardError, ServiceError):
        types[cls.__name__] = cls
    return types


_ERROR_TYPES = _known_error_types()


def error_to_dict(error: Exception) -> dict:
    """The wire form of an exception (see :func:`error_from_payload`)."""
    if isinstance(error, ServiceError):
        status, code = error.status, error.code
    elif isinstance(error, AtlasError):
        # Library errors are the caller's fault: bad query text, bad
        # config values, contradictory predicates; a few (a lost append
        # race) carry their own status.
        status = getattr(error, "status", 400)
        code = getattr(error, "code", "bad_request")
    else:
        status, code = 500, "internal"
    payload: dict = {
        "error": {
            "status": status,
            "code": code,
            "message": str(error),
            "type": type(error).__name__,
        }
    }
    detail = getattr(error, "detail", None)
    if detail:
        payload["error"]["detail"] = dict(detail)
    return payload


def error_from_payload(payload: dict, status: int) -> Exception:
    """Rebuild the typed exception a server serialized.

    The transported ``type`` name wins when it is a known library
    exception (so remote parse/config/query failures raise exactly what
    a local call would); otherwise the generic ``code`` mapping applies.
    """
    wire = payload.get("error", {}) if isinstance(payload, dict) else {}
    code = wire.get("code", "internal")
    message = wire.get("message", f"server returned HTTP {status}")
    cls = _ERROR_TYPES.get(wire.get("type"))
    if cls is None:
        cls = _ERROR_CODES.get(code, RemoteServiceError)
    error = cls(message)
    detail = wire.get("detail")
    if isinstance(error, ServiceError) and isinstance(detail, dict):
        error.detail = detail
    return error


# ---------------------------------------------------------------------- #
# Answer shapes
# ---------------------------------------------------------------------- #


def timings_to_dict(timings: StageTimings) -> dict:
    """Wire form of per-stage wall-clock seconds."""
    return {
        "sampling": timings.sampling,
        "candidates": timings.candidates,
        "clustering": timings.clustering,
        "merging": timings.merging,
        "ranking": timings.ranking,
        "extra": [[name, seconds] for name, seconds in timings.extra],
    }


def timings_from_dict(data: dict) -> StageTimings:
    """Inverse of :func:`timings_to_dict`."""
    try:
        return StageTimings(
            sampling=float(data["sampling"]),
            candidates=float(data["candidates"]),
            clustering=float(data["clustering"]),
            merging=float(data["merging"]),
            ranking=float(data["ranking"]),
            extra=tuple(
                (str(name), float(seconds))
                for name, seconds in data.get("extra", [])
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed timings payload: {exc}") from exc


def ranked_map_to_dict(entry: RankedMap) -> dict:
    """Wire form of one ranked result map."""
    return {
        "map": entry.map.to_dict(),
        "score": entry.score,
        "covers": list(entry.covers),
    }


def ranked_map_from_dict(data: dict) -> RankedMap:
    """Inverse of :func:`ranked_map_to_dict`."""
    try:
        return RankedMap(
            map=DataMap.from_dict(data["map"]),
            score=float(data["score"]),
            covers=tuple(float(c) for c in data["covers"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed ranked-map payload: {exc}") from exc


def map_set_to_dict(map_set: MapSet) -> dict:
    """Wire form of a whole answer (``clustering`` is not transported)."""
    return {
        "query": map_set.query.to_dict(),
        "ranked": [ranked_map_to_dict(r) for r in map_set.ranked],
        "timings": timings_to_dict(map_set.timings),
        "n_rows_used": map_set.n_rows_used,
        "fidelity": map_set.fidelity,
        "version": map_set.version,
    }


def map_set_from_dict(data: dict) -> MapSet:
    """Inverse of :func:`map_set_to_dict`."""
    if not isinstance(data, dict) or "ranked" not in data:
        raise ProtocolError(f"expected a map-set dict, got {data!r}")
    try:
        return MapSet(
            query=ConjunctiveQuery.from_dict(data["query"]),
            ranked=tuple(ranked_map_from_dict(r) for r in data["ranked"]),
            clustering=None,
            timings=timings_from_dict(data["timings"]),
            n_rows_used=int(data["n_rows_used"]),
            fidelity=str(data.get("fidelity", "exact")),
            version=int(data.get("version", 0)),
        )
    except KeyError as exc:
        raise ProtocolError(f"map-set payload missing field {exc}") from None


# ---------------------------------------------------------------------- #
# Payload coercion (shared by the wire path and in-process explores)
# ---------------------------------------------------------------------- #


def resolve_query_payload(query: "str | dict | None") -> ConjunctiveQuery:
    """A wire query payload as a parsed :class:`ConjunctiveQuery`.

    ``None`` means the whole table; strings are the paper's textual
    syntax; dicts are :meth:`ConjunctiveQuery.to_dict` shapes.
    """
    if query is None:
        return ConjunctiveQuery()
    if isinstance(query, str):
        from repro.query.parser import parse_query

        return parse_query(query)
    if isinstance(query, dict):
        return ConjunctiveQuery.from_dict(query)
    raise ProtocolError(
        f"cannot interpret a {type(query).__name__} as a query"
    )


def apply_config_overrides(
    base: AtlasConfig, overrides: dict | None
) -> AtlasConfig:
    """``base`` with a sparse wire dict of overrides applied."""
    if not overrides:
        return base
    merged = base.to_dict()
    unknown = set(overrides) - set(merged)
    if unknown:
        raise ProtocolError(
            f"unknown config overrides: {', '.join(sorted(map(str, unknown)))}"
        )
    merged.update(overrides)
    return AtlasConfig.from_dict(merged)


# ---------------------------------------------------------------------- #
# Request / response
# ---------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class ExploreRequest:
    """One exploration call as it crosses the wire.

    ``query`` may be ``None`` (explore the whole table), a string in
    the paper's textual syntax, or a structured
    :meth:`~repro.query.query.ConjunctiveQuery.to_dict` payload.
    ``config`` holds :class:`AtlasConfig` *overrides* (a sparse dict),
    applied over the service's default configuration.  ``fidelity`` is
    a :meth:`~repro.core.config.Fidelity.spec` string (``"exact"``,
    ``"sketch[:rows[:eps]]"``) applied on top of ``config`` — the
    one-flag way for a client to trade accuracy for latency.
    ``parallelism`` is a :meth:`~repro.core.config.Parallelism.spec`
    string (``"serial"``, ``"parallel[:workers[:shards]]"``) applied
    the same way; admission control weighs a parallel request by the
    workers it asks for, so one client cannot monopolize the host's
    cores for free.
    """

    table: str
    query: str | dict | None = None
    config: dict | None = None
    use_cache: bool = True
    fidelity: str | None = None
    parallelism: str | None = None
    #: Seconds the server may spend before the run is cancelled
    #: cooperatively between pipeline stages (``None`` = no deadline).
    #: Never part of the result-cache key: a deadline changes whether
    #: an answer arrives, not what the answer is.
    deadline_seconds: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"table": self.table, "use_cache": self.use_cache}
        if self.query is not None:
            out["query"] = self.query
        if self.config:
            out["config"] = dict(self.config)
        if self.fidelity is not None:
            out["fidelity"] = self.fidelity
        if self.parallelism is not None:
            out["parallelism"] = self.parallelism
        if self.deadline_seconds is not None:
            out["deadline_seconds"] = self.deadline_seconds
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreRequest":
        if not isinstance(data, dict):
            raise ProtocolError(
                f"expected a request object, got {type(data).__name__}"
            )
        table = data.get("table")
        if not isinstance(table, str) or not table:
            raise ProtocolError("request needs a non-empty 'table' name")
        query = data.get("query")
        if query is not None and not isinstance(query, (str, dict)):
            raise ProtocolError(
                "'query' must be a string in the paper's syntax or a "
                f"query dict, got {type(query).__name__}"
            )
        config = data.get("config")
        if config is not None and not isinstance(config, dict):
            raise ProtocolError("'config' must be an object of overrides")
        fidelity = data.get("fidelity")
        if fidelity is not None and not isinstance(fidelity, str):
            raise ProtocolError(
                "'fidelity' must be a spec string like 'exact' or "
                f"'sketch:20000', got {type(fidelity).__name__}"
            )
        parallelism = data.get("parallelism")
        if parallelism is not None and not isinstance(parallelism, str):
            raise ProtocolError(
                "'parallelism' must be a spec string like 'serial' or "
                f"'parallel:4', got {type(parallelism).__name__}"
            )
        deadline = data.get("deadline_seconds")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(
                deadline, (int, float)
            ):
                raise ProtocolError(
                    "'deadline_seconds' must be a positive number, got "
                    f"{type(deadline).__name__}"
                )
            deadline = float(deadline)
            if deadline <= 0:
                raise ProtocolError(
                    f"'deadline_seconds' must be > 0, got {deadline}"
                )
        return cls(
            table=table,
            query=query,
            config=config,
            use_cache=bool(data.get("use_cache", True)),
            fidelity=fidelity,
            parallelism=parallelism,
            deadline_seconds=deadline,
        )

    def resolve_query(self) -> ConjunctiveQuery:
        """The parsed query this request asks about."""
        return resolve_query_payload(self.query)

    def resolve_config(self, base: AtlasConfig) -> AtlasConfig:
        """``base`` with this request's overrides (fidelity and
        parallelism included) applied."""
        resolved = apply_config_overrides(base, self.config)
        if self.fidelity is not None:
            resolved = resolved.replace(fidelity=self.fidelity)
        if self.parallelism is not None:
            resolved = resolved.replace(parallelism=self.parallelism)
        return resolved


@dataclasses.dataclass(frozen=True)
class AppendRequest:
    """A streaming append as it crosses the wire.

    ``rows`` is columnar — ``{column name: [values...]}`` with every
    list the same length — matching :meth:`Table.append`'s mapping
    shape, so the server coerces values to the table's column kinds
    and rejects schema mismatches with a 400.
    """

    table: str
    rows: dict

    def to_dict(self) -> dict:
        return {"table": self.table, "rows": {
            name: list(values) for name, values in self.rows.items()
        }}

    @classmethod
    def from_dict(cls, data: dict) -> "AppendRequest":
        if not isinstance(data, dict):
            raise ProtocolError(
                f"expected an append object, got {type(data).__name__}"
            )
        table = data.get("table")
        if not isinstance(table, str) or not table:
            raise ProtocolError("append needs a non-empty 'table' name")
        rows = data.get("rows")
        if not isinstance(rows, dict) or not rows:
            raise ProtocolError(
                "append needs 'rows': a non-empty {column: [values...]} "
                "object"
            )
        lengths = set()
        for name, values in rows.items():
            if not isinstance(values, list):
                raise ProtocolError(
                    f"append column {name!r} must be a list of values, "
                    f"got {type(values).__name__}"
                )
            lengths.add(len(values))
        if len(lengths) > 1:
            raise ProtocolError(
                "append columns differ in length: "
                + ", ".join(f"{len(v)}" for v in rows.values())
            )
        return cls(table=table, rows={str(k): v for k, v in rows.items()})


@dataclasses.dataclass(frozen=True)
class AppendResponse:
    """The server's acknowledgement of a streaming append."""

    table: str
    #: The table's streaming version after the append.
    version: int
    #: Total rows after the append.
    n_rows: int
    #: Rows this request added.
    appended: int

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "version": self.version,
            "n_rows": self.n_rows,
            "appended": self.appended,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppendResponse":
        if not isinstance(data, dict) or "version" not in data:
            raise ProtocolError(
                f"expected an append response object, got {data!r}"
            )
        try:
            return cls(
                table=str(data["table"]),
                version=int(data["version"]),
                n_rows=int(data["n_rows"]),
                appended=int(data["appended"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed append response: {exc}"
            ) from exc


@dataclasses.dataclass(frozen=True)
class ExploreResponse:
    """A transported answer plus service-side provenance."""

    map_set: MapSet
    #: True when the answer came from the service's result cache.
    cached: bool
    #: Server-side wall-clock seconds for this request (cache hits
    #: report the *original* computation's time as ``computed_seconds``
    #: would be misleading; hits are near-free).
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "map_set": map_set_to_dict(self.map_set),
            "cached": self.cached,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreResponse":
        if not isinstance(data, dict) or "map_set" not in data:
            raise ProtocolError(f"expected a response object, got {data!r}")
        return cls(
            map_set=map_set_from_dict(data["map_set"]),
            cached=bool(data.get("cached", False)),
            elapsed=float(data.get("elapsed", 0.0)),
        )
