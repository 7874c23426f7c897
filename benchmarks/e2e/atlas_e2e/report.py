"""One run of one workload, turned into the metrics the benchmark reports.

An untraced run gives the end-to-end metrics; a traced run gives the
per-layer metrics.  The two never mix: the traced phase alternates
decomposed and plain ops to price the tracing itself, and none of its
latencies reaches an end-to-end number.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import sys
import time
from pathlib import Path

from atlas_e2e.loadgen import OpRecord
from atlas_e2e.probes import run_probes
from atlas_e2e.spans import SpanRecorder, self_time_by_name
from atlas_e2e.stats import block_medians, percentile
from atlas_e2e.workloads import STAGES, WORKLOADS, Workload, is_traced

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclasses.dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float | None]
    #: Extra detail for the ``--out`` document (never on the result line).
    detail: dict

    @property
    def correct(self) -> bool:
        return self.failed == 0


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` of this process or of its largest reaped child.

    The field is kilobytes on Linux and bytes on macOS.
    """
    per_mb = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(who).ru_maxrss / per_mb


def count_failures(workload: Workload, records: list[OpRecord]) -> list[str]:
    """Ops that raised or were refused, then whatever the oracle rejects."""
    failures = [
        f"client {r.client} op {r.index}: {r.error}" for r in records if r.error is not None
    ]
    return failures + workload.verify(records)


def run_untraced(
    workload: Workload, seconds: float, setup_repeats: int = SETUP_REPEATS
) -> RunResult:
    setups = []
    for attempt in range(setup_repeats):
        if attempt:
            workload.teardown()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    try:
        gc.collect()
        started = time.perf_counter()
        records = workload.run_phase(seconds=seconds)
        wall = time.perf_counter() - started
        # Before the oracle runs, so that its tables are not counted.
        own_rss = peak_rss_mb(resource.RUSAGE_SELF)
        failures = count_failures(workload, records)
    finally:
        workload.teardown()
    samples = [r.latency_ms for r in records if r.error is None]
    metrics = {
        "op_p50_ms": percentile(samples, 50),
        "op_p90_ms": percentile(samples, 90),
        "ops_per_s": len(samples) / wall,
        "setup_s": statistics.median(setups),
        # Children are read after teardown has reaped the shard servers.
        "peak_rss_mb": own_rss + peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    detail = {
        "ops_attempted": len(records),
        "ops_timed": len(samples),
        "timed_wall_s": wall,
        "op_p50_ms_blocks": block_medians(samples),
        "setup_s_each": setups,
    }
    return RunResult(
        workload.name, workload.seed, False, len(records), len(failures), failures, metrics, detail
    )


def op_metrics(records: list[OpRecord], before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics of the traced phase itself."""
    done = [r for r in records if r.error is None]
    traced = [r.latency_ms for r in done if is_traced(r.index)]
    plain = [r.latency_ms for r in done if not is_traced(r.index)]
    metrics = {
        "trace.overhead_pct": (percentile(traced, 50) / percentile(plain, 50) - 1.0) * 100.0,
        "pipeline.total_ms": statistics.fmean(r.note.timings.total for r in done) * 1e3,
    }
    for stage in STAGES:
        metrics[f"stage.{stage}_ms"] = (
            statistics.fmean(getattr(r.note.timings, stage) for r in done) * 1e3
        )
    cache_before = before.get("result_cache", {})
    cache = {
        key: after["result_cache"][key] - cache_before.get(key, 0)
        for key in ("hits", "misses", "evictions")
    }
    lookups = cache["hits"] + cache["misses"]
    rejected = sum(
        after["requests"][key] - before.get("requests", {}).get(key, 0)
        for key in ("rejected", "rate_limited")
    )
    metrics.update(
        {
            "service.result_cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "service.result_cache.evictions": cache["evictions"],
            "service.rejected": rejected,
            "service.pending_after": after["service"]["pending"],
            # Over the contexts alive at the end of the phase: an
            # evicted context takes its counters with it.
            "backend.stats.hit_rate": after["statistics_cache"]["hit_rate"],
            "backend.stats.misses": after["statistics_cache"]["misses"],
        }
    )
    return metrics


def run_traced(
    workload: Workload, seconds: float, workdir: Path, trace_out: str | None
) -> RunResult:
    recorder = SpanRecorder()
    workload.setup()
    try:
        before = workload.metrics_baseline()
        gc.collect()
        records = workload.run_phase(seconds=seconds, recorder=recorder)
        after = workload.service_metrics()
        failures = count_failures(workload, records)
        metrics: dict[str, float | None] = dict(op_metrics(records, before, after))
        span_self_ms = {
            name: statistics.median(values) / 1e6
            for name, values in sorted(self_time_by_name(recorder.spans).items())
        }
        probed, notes = run_probes(recorder, workload.probe_inputs(), workdir)
        metrics.update(probed)
    finally:
        workload.teardown()
    if trace_out is not None:
        recorder.write(trace_out)
    detail = {
        "ops_attempted": len(records),
        "ops_traced": sum(1 for r in records if is_traced(r.index)),
        "span_self_ms": span_self_ms,
        "spans": len(recorder.spans),
        "probe_notes": notes,
    }
    return RunResult(
        workload.name, workload.seed, True, len(records), len(failures), failures, metrics, detail
    )


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float,
    workdir: Path,
    trace_out: str | None = None,
) -> RunResult:
    workload = WORKLOADS[name](seed=seed, scale=scale, workdir=workdir)
    if trace:
        return run_traced(workload, seconds, workdir, trace_out)
    return run_untraced(workload, seconds)
