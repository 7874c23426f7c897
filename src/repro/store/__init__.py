"""Persistent table store: durable tables, append logs, warm sketches.

The storage layer under the service (ROADMAP item 1): a SQLite-backed
:class:`TableStore` durably records registered tables, their streaming
append history (idempotent version-pair replay), and serialized sketch
summaries, so an :class:`~repro.service.service.ExplorationService`
restart warm-starts — loading tables and ready-made
:class:`~repro.engine.backends.SketchBackend` state instead of
regenerating and rescanning.
"""

from repro.store.store import TableStore
from repro.store.warm import (
    SketchSummary,
    extract_summary,
    restore_backend,
    summary_key,
)

__all__ = [
    "SketchSummary",
    "TableStore",
    "extract_summary",
    "restore_backend",
    "summary_key",
]
