"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`AtlasError`, so
applications embedding the engine can catch one type.  Sub-classes mirror
the architectural layers: dataset substrate, query language, map engine.
"""

from __future__ import annotations


class AtlasError(Exception):
    """Base class for all errors raised by the repro package."""


class DatasetError(AtlasError):
    """Problems in the columnar dataset substrate (bad column, bad shape)."""


class SchemaError(DatasetError):
    """A table or catalog schema is inconsistent (unknown column, dup name)."""


class TypeInferenceError(DatasetError):
    """Raw values could not be coerced into a supported column type."""


class CatalogError(DatasetError):
    """Multi-table catalog problems: unknown table, broken foreign key."""


class QueryError(AtlasError):
    """Problems in the conjunctive query layer."""


class PredicateError(QueryError):
    """A predicate is malformed (empty set, inverted range, wrong type)."""


class ParseError(QueryError):
    """The textual query syntax could not be parsed."""


class MapError(AtlasError):
    """Problems constructing or combining data maps."""


class ConfigError(AtlasError):
    """An AtlasConfig value is out of its documented domain."""


class SketchError(AtlasError):
    """A streaming sketch was misused (e.g. query before any insert)."""


class StoreError(AtlasError):
    """Problems in the persistent table store (schema drift, bad replay)."""


class AppendConflictError(StoreError):
    """An append's version pair is already logged with a different delta.

    Another writer on the same store got there first; the caller's
    append was not applied (HTTP 409).  Re-issuing the *logged* delta
    stays an idempotent no-op.
    """

    status = 409
    code = "append_conflict"
