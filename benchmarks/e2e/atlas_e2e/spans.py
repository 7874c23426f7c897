"""An in-memory span recorder, and self time over the recorded tree.

Spans are recorded by the harness around its calls into each layer's
public functions (tracing inside ``src/`` is a later change).  They stay
in memory during the run and are written once, as JSON lines, when the
run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import time
from typing import Iterable, Iterator


@dataclasses.dataclass(frozen=True)
class Span:
    """One timed interval: what ran, when, and which span caused it."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    #: ``span_id`` of the span that caused this one; None for a root.
    parent: int | None
    #: Shared by every span of one operation (or one probe).
    op_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class OpenSpan:
    """Handle on a recorded span, for naming it as a parent."""

    __slots__ = ("span_id", "op_id", "end_ns")

    def __init__(self, span_id: int, op_id: int, end_ns: int = 0):
        self.span_id = span_id
        self.op_id = op_id
        #: Set when the span closes.
        self.end_ns = end_ns


class SpanRecorder:
    """Collects spans from any number of threads.

    A span without a parent starts a new operation; its descendants
    inherit the operation id.  ``list.append`` and ``next`` on an
    ``itertools.count`` are single bytecode-level operations, so
    concurrent load threads need no lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def _open(self, parent: OpenSpan | None) -> OpenSpan:
        span_id = next(self._ids)
        return OpenSpan(span_id, span_id if parent is None else parent.op_id)

    def _close(self, handle: OpenSpan, name: str, start_ns: int, parent: OpenSpan | None) -> None:
        parent_id = None if parent is None else parent.span_id
        self.spans.append(
            Span(handle.span_id, name, start_ns, handle.end_ns, parent_id, handle.op_id)
        )

    @contextlib.contextmanager
    def span(self, name: str, parent: OpenSpan | None = None) -> Iterator[OpenSpan]:
        """Time the body; the yielded handle names this span as a parent."""
        handle = self._open(parent)
        start = time.perf_counter_ns()
        try:
            yield handle
        finally:
            handle.end_ns = time.perf_counter_ns()
            self._close(handle, name, start, parent)

    def add(self, name: str, start_ns: int, end_ns: int, parent: OpenSpan | None) -> OpenSpan:
        """Record a span measured elsewhere (a server's own report)."""
        handle = self._open(parent)
        handle.end_ns = end_ns
        self._close(handle, name, start_ns, parent)
        return handle

    def durations_ns(self, name: str) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus what children cover.

    Child intervals are clipped to the parent's and overlapping
    children are counted once, so parallel children (two shard-server
    blocks) cannot push a parent's self time below zero.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            low = max(child.start_ns, cursor)
            high = min(child.end_ns, span.end_ns)
            if high > low:
                covered += high - low
                cursor = high
        out[span.span_id] = span.duration_ns - covered
    return out


def self_time_by_name(spans: Iterable[Span]) -> dict[str, list[int]]:
    """Self times grouped by span name (the per-layer view)."""
    spans = list(spans)
    per_span = self_times(spans)
    grouped: dict[str, list[int]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(per_span[span.span_id])
    return grouped
