"""Service observability: request counters and latency percentiles.

The pipeline already times every stage generically
(:class:`~repro.engine.pipeline.StageTimings`); the service feeds those
into bounded sliding windows here, so ``/metrics`` can report p50/p90/
p99 per stage and end-to-end without unbounded memory — the numbers the
paper's quasi-real-time requirement (Sections 1/2/5.1) is judged by.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.engine.pipeline import CANONICAL_STAGES, StageTimings

#: Samples kept per latency window; enough for stable tail estimates
#: over recent traffic while bounding memory per label.
_WINDOW = 2048


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (already a plain list)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyWindow:
    """A bounded window of latency samples with percentile snapshots."""

    def __init__(self, maxlen: int = _WINDOW):
        self._samples: deque[float] = deque(maxlen=maxlen)

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def snapshot(self) -> dict:
        samples = list(self._samples)
        if not samples:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": len(samples),
            "mean": sum(samples) / len(samples),
            "p50": percentile(samples, 0.50),
            "p90": percentile(samples, 0.90),
            "p99": percentile(samples, 0.99),
            "max": max(samples),
        }


class ServiceMetrics:
    """Thread-safe counters + per-stage latency windows."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {  # guarded-by: _lock
            "received": 0,       # every explore request that reached us
            "completed": 0,      # answered by running the pipeline
            "cache_hits": 0,     # answered from the result cache
            "rejected": 0,       # shed by admission control (429)
            "rate_limited": 0,   # shed by a tenant's own limit (429)
            "deadline_exceeded": 0,  # cancelled between stages (504)
            "failed": 0,         # raised any other error
            "appends": 0,        # streaming append batches applied
            "summaries_persisted": 0,  # sketch states written to the store
        }
        self._stage_latency = {  # guarded-by: _lock
            name: LatencyWindow() for name in CANONICAL_STAGES
        }
        self._total_latency = LatencyWindow()  # guarded-by: _lock

    def count(self, counter: str, n: int = 1) -> None:
        """Bump one of the request counters."""
        with self._lock:
            self._counters[counter] += n

    def observe(self, timings: StageTimings, elapsed: float) -> None:
        """Record one completed pipeline run."""
        with self._lock:
            self._counters["completed"] += 1
            for name in CANONICAL_STAGES:
                self._stage_latency[name].record(getattr(timings, name))
            self._total_latency.record(elapsed)

    def snapshot(self) -> dict:
        """Everything ``/metrics`` reports (JSON-ready)."""
        with self._lock:
            return {
                "requests": dict(self._counters),
                "latency": {
                    "total": self._total_latency.snapshot(),
                    "stages": {
                        name: window.snapshot()
                        for name, window in self._stage_latency.items()
                    },
                },
            }
