"""E17 & E23 — the exploration service: cache, concurrency, saturation.

E17 (pytest, below) established the two claims behind the service
frontend:

1. **Warm beats cold.**  A repeated query is answered from the LRU
   result cache in (sub-)millisecond time — at least 5x faster than
   computing it, measured end-to-end through real HTTP sockets.
2. **Admission control sheds, clients survive.**  1 / 4 / 16 concurrent
   clients complete a mixed 40-query workload with zero errors: the
   server rejects overflow with fast 429s and the client's busy-retry
   absorbs them, instead of queueing without bound.

E23 (CLI main, below) measures the same frontend under saturation:

1. **Latency vs offered load.**  Fleets of 64 / 128 / 256 simulated
   clients — each an :class:`AsyncServiceClient` coroutine on one
   event loop — drive uncached queries through 4 workers.  p50 / p90 /
   p99 are recorded per load with **zero protocol errors**: every
   request either completes or is shed with a typed busy rejection the
   client's deterministic backoff absorbs.
2. **Tenant fairness.**  A rate-limited "heavy" tenant hammering the
   service is shed with 429 + ``Retry-After`` on every rejection while
   a "light" tenant's p90 stays within 2x of its solo (uncontended)
   run.
3. **Deadlines stop between stages.**  A deadline-exceeded request
   carries boundary proof — ``stages_completed`` and ``next_stage`` —
   showing the pipeline stopped *between* stages, and a generous
   deadline is invisible.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py   # E17
    PYTHONPATH=src python benchmarks/bench_service.py             # full E23
    PYTHONPATH=src python benchmarks/bench_service.py --smoke     # CI check
    PYTHONPATH=src python benchmarks/bench_service.py --smoke --json out.json

The full E23 run writes ``benchmarks/results/service_saturation.json``
(guarded by ``benchmarks/check_results.py``); the smoke run only
prints/asserts unless ``--json`` names an output file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datagen import census_table                    # noqa: E402
from repro.engine import explorer                         # noqa: E402
from repro.evaluation.harness import ResultTable          # noqa: E402
from repro.evaluation.workloads import FIGURE2_QUERY_TEXT  # noqa: E402
from repro.service import (                               # noqa: E402
    AsyncServiceClient,
    DeadlineExceededError,
    ExplorationService,
    RateLimitError,
    ServiceClient,
    Tenant,
    serve,
    serve_async,
)
from repro.service.metrics import percentile              # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "service_saturation.json"

N_ROWS = 40_000
MIN_WARM_SPEEDUP = 5.0
WORKLOAD_SIZE = 40
CLIENT_COUNTS = (1, 4, 16)

#: Distinct query shapes; cycling them to 40 requests gives a mixed
#: workload with the repetition interactive traffic actually has.
QUERY_MIX = [
    None,                              # whole-table survey
    FIGURE2_QUERY_TEXT,                # the paper's Section-1 query
    "Age: [17, 45]",
    "Age: [46, 90]",
    "Age: [17, 60]\nSex: any",
    "Age: [25, 70]\nEducation: any\nSalary: any",
    "Sex: any\nSalary: any",
    "Age: [30, 50]\nEye color: any",
]

#: E23 offered loads — simulated concurrent clients per fleet.
SATURATION_LOADS = (64, 128, 256)
SMOKE_LOADS = (8, 16)
#: E23 fairness acceptance bar: the light tenant's contended p90 may
#: be at most this multiple of its solo p90.
FAIRNESS_P90_RATIO = 2.0


def _mixed_workload(n: int) -> list:
    return [QUERY_MIX[i % len(QUERY_MIX)] for i in range(n)]


def _fresh_served_service(table):
    service = ExplorationService(max_workers=4, max_queue_depth=8)
    service.register(table)
    return service, serve(service)


# ---------------------------------------------------------------------------
# E17a — warm cache vs cold compute (pytest)
# ---------------------------------------------------------------------------


def test_warm_cache_speedup(save_report):
    table = census_table(n_rows=N_ROWS, seed=0)
    service, server = _fresh_served_service(table)
    try:
        client = ServiceClient(server.url)
        local = explorer(table)

        cold_times, warm_times = [], []
        for query in QUERY_MIX:
            started = time.perf_counter()
            cold = client.explore("census", query)
            cold_times.append(time.perf_counter() - started)
            # Remote answers must match the local engine, map for map.
            assert cold.map_set.maps == local.explore(query).maps
            assert not cold.cached
        for query in QUERY_MIX:
            started = time.perf_counter()
            warm = client.explore("census", query)
            warm_times.append(time.perf_counter() - started)
            assert warm.cached

        cold_total, warm_total = sum(cold_times), sum(warm_times)
        speedup = cold_total / warm_total

        report = ResultTable(
            ["pass", "queries", "seconds", "mean_ms", "speedup"],
            title=(
                f"E17a: result cache, cold vs warm over HTTP "
                f"({N_ROWS} census rows)"
            ),
        )
        report.add_row([
            "cold (computed)", len(cold_times), cold_total,
            1000 * cold_total / len(cold_times), 1.0,
        ])
        report.add_row([
            "warm (result cache)", len(warm_times), warm_total,
            1000 * warm_total / len(warm_times), speedup,
        ])
        save_report("service_cache", report.render())

        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm cache speedup {speedup:.1f}x below the "
            f"{MIN_WARM_SPEEDUP}x bar"
        )
    finally:
        server.close(close_service=True)


# ---------------------------------------------------------------------------
# E17b — threaded clients vs admission control (pytest)
# ---------------------------------------------------------------------------


def test_concurrent_client_throughput(save_report):
    table = census_table(n_rows=N_ROWS, seed=0)
    workload = _mixed_workload(WORKLOAD_SIZE)

    report = ResultTable(
        ["clients", "queries", "errors", "429s", "seconds", "qps",
         "p50_ms", "p99_ms"],
        title=(
            f"E17b: mixed {WORKLOAD_SIZE}-query workload vs concurrency "
            f"(4 workers, queue 8, {N_ROWS} census rows)"
        ),
    )

    for n_clients in CLIENT_COUNTS:
        service, server = _fresh_served_service(table)
        try:
            def run_client(index):
                client = ServiceClient(server.url)
                latencies, errors = [], 0
                for query in workload[index::n_clients]:
                    started = time.perf_counter()
                    try:
                        client.explore(
                            "census", query, retry_busy=100,
                            busy_backoff=0.01,
                        )
                    except Exception:
                        errors += 1
                    latencies.append(time.perf_counter() - started)
                return latencies, errors

            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                results = [
                    f.result()
                    for f in [
                        pool.submit(run_client, i) for i in range(n_clients)
                    ]
                ]
            elapsed = time.perf_counter() - started

            latencies = [t for lat, _ in results for t in lat]
            errors = sum(e for _, e in results)
            rejected = service.metrics()["requests"]["rejected"]
            report.add_row([
                n_clients, len(latencies), errors, rejected, elapsed,
                len(latencies) / elapsed,
                1000 * percentile(latencies, 0.50),
                1000 * percentile(latencies, 0.99),
            ])

            # The acceptance bar: every request lands, even when
            # admission control is shedding bursts.
            assert errors == 0, f"{errors} errors at {n_clients} clients"
            assert len(latencies) == WORKLOAD_SIZE
        finally:
            server.close(close_service=True)

    save_report("service_throughput", report.render())


# ---------------------------------------------------------------------------
# E23 — asyncio frontend saturation / fairness / deadlines (CLI)
# ---------------------------------------------------------------------------


async def _fleet(
    url: str,
    n_clients: int,
    per_client: int,
    *,
    api_key: str | None = None,
    use_cache: bool = True,
    retry_busy: int = 2000,
    busy_backoff: float = 0.005,
) -> tuple[list[float], list[str]]:
    """``n_clients`` concurrent AsyncServiceClients, ``per_client``
    queries each.  Returns (per-request latencies, protocol errors)."""
    latencies: list[float] = []
    errors: list[str] = []

    async def one(index: int) -> None:
        async with AsyncServiceClient(url, api_key=api_key) as client:
            for k in range(per_client):
                query = QUERY_MIX[(index + k) % len(QUERY_MIX)]
                started = time.perf_counter()
                try:
                    await client.explore(
                        "census", query, use_cache=use_cache,
                        retry_busy=retry_busy, busy_backoff=busy_backoff,
                    )
                except Exception as error:
                    errors.append(f"{type(error).__name__}: {error}")
                latencies.append(time.perf_counter() - started)

    await asyncio.gather(*(one(i) for i in range(n_clients)))
    return latencies, errors


def run_saturation(
    table, loads: tuple[int, ...], per_client: int
) -> tuple[list[dict], int, ResultTable]:
    """Latency percentiles vs offered load through the async frontend."""
    report = ResultTable(
        ["clients", "queries", "errors", "busy", "seconds", "qps",
         "p50_ms", "p90_ms", "p99_ms"],
        title=(
            f"E23a: async frontend saturation — uncached {per_client} "
            f"queries/client (4 workers, queue 8)"
        ),
    )
    rows: list[dict] = []
    protocol_errors = 0
    for n_clients in loads:
        service = ExplorationService(max_workers=4, max_queue_depth=8)
        service.register(table)
        server = serve_async(service)
        try:
            started = time.perf_counter()
            latencies, errors = asyncio.run(
                _fleet(server.url, n_clients, per_client, use_cache=False)
            )
            elapsed = time.perf_counter() - started
            busy = service.metrics()["requests"]["rejected"]
        finally:
            server.close(close_service=True)

        protocol_errors += len(errors)
        for message in errors[:5]:
            print(f"  protocol error at {n_clients} clients: {message}")
        row = {
            "clients": n_clients,
            "queries": len(latencies),
            "errors": len(errors),
            "busy_rejections": busy,
            "seconds": round(elapsed, 4),
            "qps": round(len(latencies) / elapsed, 2),
            "p50_ms": round(1000 * percentile(latencies, 0.50), 3),
            "p90_ms": round(1000 * percentile(latencies, 0.90), 3),
            "p99_ms": round(1000 * percentile(latencies, 0.99), 3),
        }
        rows.append(row)
        report.add_row([
            n_clients, row["queries"], row["errors"], busy, elapsed,
            row["qps"], row["p50_ms"], row["p90_ms"], row["p99_ms"],
        ])
        assert len(latencies) == n_clients * per_client
    return rows, protocol_errors, report


def _fairness_service(table) -> ExplorationService:
    # The heavy tenant gets a trickle (1 request up front, one every
    # 2 s, never more than 1 in flight); everything past that is shed
    # with 429 + Retry-After before any compute is spent on it.
    service = ExplorationService(
        max_workers=4,
        max_queue_depth=8,
        tenants=(
            Tenant("light", api_key="k-light"),
            Tenant("heavy", api_key="k-heavy", rate=0.5, burst=1,
                   max_inflight=1),
        ),
    )
    service.register(table)
    return service


async def _contended_run(
    url: str, light_clients: int, light_per_client: int, heavy_clients: int
) -> tuple[tuple[list[float], list[str]], dict]:
    """The light fleet with a rate-limited heavy tenant hammering."""
    done = asyncio.Event()
    heavy_stats = {"429s": 0, "ok": 0, "retry_after_present": 0,
                   "protocol_errors": []}

    async def heavy(index: int) -> None:
        async with AsyncServiceClient(url, api_key="k-heavy") as client:
            while not done.is_set():
                try:
                    await client.explore(
                        "census", QUERY_MIX[index % len(QUERY_MIX)],
                        use_cache=False,
                    )
                    heavy_stats["ok"] += 1
                except RateLimitError as error:
                    heavy_stats["429s"] += 1
                    if error.detail.get("retry_after_header"):
                        heavy_stats["retry_after_present"] += 1
                except Exception as error:
                    heavy_stats["protocol_errors"].append(
                        f"{type(error).__name__}: {error}"
                    )
                await asyncio.sleep(0.01)

    async def light_then_stop():
        try:
            return await _fleet(
                url, light_clients, light_per_client,
                api_key="k-light", use_cache=False,
            )
        finally:
            done.set()

    light_result, *_ = await asyncio.gather(
        light_then_stop(), *(heavy(i) for i in range(heavy_clients))
    )
    return light_result, heavy_stats


def run_fairness(
    table, light_clients: int, light_per_client: int, heavy_clients: int
) -> tuple[dict, int, ResultTable]:
    """A shed heavy tenant must not double the light tenant's p90."""
    # Solo baseline: the light tenant alone on a fresh service.
    service = _fairness_service(table)
    server = serve_async(service)
    try:
        solo_latencies, solo_errors = asyncio.run(
            _fleet(
                server.url, light_clients, light_per_client,
                api_key="k-light", use_cache=False,
            )
        )
    finally:
        server.close(close_service=True)

    # Contended: same light fleet while the heavy tenant hammers.
    service = _fairness_service(table)
    server = serve_async(service)
    try:
        (contended_latencies, contended_errors), heavy_stats = asyncio.run(
            _contended_run(
                server.url, light_clients, light_per_client, heavy_clients
            )
        )
    finally:
        server.close(close_service=True)

    solo_p90 = 1000 * percentile(solo_latencies, 0.90)
    contended_p90 = 1000 * percentile(contended_latencies, 0.90)
    ratio = contended_p90 / solo_p90 if solo_p90 > 0 else float("inf")
    protocol_errors = (
        len(solo_errors) + len(contended_errors)
        + len(heavy_stats["protocol_errors"])
    )

    report = ResultTable(
        ["tenant", "run", "queries", "p90_ms", "429s", "retry-after"],
        title=(
            f"E23b: tenant fairness — {light_clients} light clients vs "
            f"{heavy_clients} rate-limited heavy clients"
        ),
    )
    report.add_row([
        "light", "solo", len(solo_latencies), solo_p90, 0, "",
    ])
    report.add_row([
        "light", "contended", len(contended_latencies), contended_p90,
        0, "",
    ])
    report.add_row([
        "heavy", "contended", heavy_stats["ok"], "",
        heavy_stats["429s"],
        f"{heavy_stats['retry_after_present']}/{heavy_stats['429s']}",
    ])
    payload = {
        "light_solo_p90_ms": round(solo_p90, 3),
        "light_contended_p90_ms": round(contended_p90, 3),
        "p90_ratio": round(ratio, 4),
        "heavy_completed": heavy_stats["ok"],
        "heavy_429s": heavy_stats["429s"],
        "retry_after_present": (
            heavy_stats["429s"] > 0
            and heavy_stats["retry_after_present"] == heavy_stats["429s"]
        ),
    }
    return payload, protocol_errors, report


def run_deadline(table) -> dict:
    """Boundary proof: an exceeded deadline stops *between* stages."""
    service = ExplorationService(max_workers=2)
    service.register(table)
    server = serve_async(service)
    try:
        client = ServiceClient(server.url)
        try:
            detail: dict = {}
            try:
                client.explore(
                    "census", use_cache=False, deadline_seconds=1e-9
                )
            except DeadlineExceededError as error:
                detail = dict(error.detail)
            generous = client.explore(
                "census", "Age: [17, 90]", use_cache=False,
                deadline_seconds=60.0,
            )
        finally:
            client.close()
    finally:
        server.close(close_service=True)

    return {
        "stopped_between_stages": (
            isinstance(detail.get("stages_completed"), int)
            and isinstance(detail.get("next_stage"), str)
        ),
        "stages_completed": detail.get("stages_completed"),
        "next_stage": detail.get("next_stage"),
        "generous_deadline_completed": bool(generous.map_set.maps),
    }


def run_e23(
    n_rows: int,
    loads: tuple[int, ...],
    per_client: int,
    *,
    smoke: bool,
    json_path: str | None,
) -> dict:
    table = census_table(n_rows=n_rows, seed=0)

    load_rows, saturation_errors, saturation_report = run_saturation(
        table, loads, per_client
    )
    # Fairness needs enough light-tenant samples for a stable p90 —
    # independent of the saturation fleets' per-client query count.
    light_clients = 4 if smoke else 8
    fairness, fairness_errors, fairness_report = run_fairness(
        table, light_clients, light_per_client=6, heavy_clients=4
    )
    deadline = run_deadline(table)
    protocol_errors = saturation_errors + fairness_errors

    for report in (saturation_report, fairness_report):
        print()
        print(report.render())
    print(
        f"\nE23c: deadline boundary proof — stopped before stage "
        f"{deadline['next_stage']!r} with "
        f"{deadline['stages_completed']} stages completed; generous "
        f"deadline completed: {deadline['generous_deadline_completed']}"
    )

    assert protocol_errors == 0, (
        f"{protocol_errors} protocol errors across the E23 scenarios"
    )
    assert fairness["heavy_429s"] > 0, "the rate limiter never fired"
    assert fairness["retry_after_present"], (
        "a 429 arrived without a Retry-After header"
    )
    assert fairness["p90_ratio"] <= FAIRNESS_P90_RATIO, (
        f"light tenant p90 degraded {fairness['p90_ratio']:.2f}x under a "
        f"shed heavy tenant (bar: {FAIRNESS_P90_RATIO}x)"
    )
    assert deadline["stopped_between_stages"], deadline
    assert deadline["generous_deadline_completed"]

    payload = {
        "experiment": "E23",
        "mode": "smoke" if smoke else "full",
        "n_rows": n_rows,
        "workers": 4,
        "queue_depth": 8,
        "per_client": per_client,
        "loads": load_rows,
        "protocol_errors": protocol_errors,
        "fairness": fairness,
        "deadline": deadline,
    }
    if json_path:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {json_path}")
    elif not smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULTS_FILE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {RESULTS_FILE}")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="E23 — async frontend saturation, fairness, deadlines"
    )
    parser.add_argument("--rows", type=int, default=N_ROWS,
                        help="table size for the full experiment")
    parser.add_argument("--loads", type=int, nargs="+",
                        default=list(SATURATION_LOADS),
                        help="concurrent-client fleet sizes")
    parser.add_argument("--per-client", type=int, default=3,
                        help="uncached queries each simulated client issues")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small, assertion-only CI run (no results file unless --json)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the measurement payload to PATH (any mode)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        run_e23(5_000, SMOKE_LOADS, 2, smoke=True, json_path=args.json)
        print("\nsmoke ok")
    else:
        run_e23(args.rows, tuple(args.loads), args.per_client,
                smoke=False, json_path=args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
