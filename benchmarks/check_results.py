"""Benchmark-regression guard: committed speedup floors vs a smoke run.

CI runs the E20 smoke benchmark with ``--json`` and hands the fresh
measurement to this script, which diffs it against the committed
``benchmarks/results/*.json`` figures (matched by ``experiment``):

* **Correctness gates (always):** the smoke run's answers must be
  bit-identical across worker counts (``answers_identical``) with
  top-3 agreement 1.000 — a determinism regression fails CI on any
  hardware.
* **Speedup floor:** the fresh ``speedup`` must reach ``RATIO`` (80%)
  of the committed figure.  The floor only binds when the fresh host
  has at least as many cores as the fresh run used workers
  (``cpu_count >= workers``); a 1-core runner cannot exhibit
  multi-core speedup and skips the wall-clock comparison, never the
  correctness gates.
* **Service gates (E23):** payloads without a ``speedup`` figure are
  the async-frontend saturation runs.  Their gates are behavioural,
  not wall-clock, so they bind on any host: zero protocol errors
  across every offered load, rate-limited tenants shed with 429 +
  ``Retry-After``, the light tenant's contended p90 within
  ``FAIRNESS_P90_RATIO`` of its solo run, and deadline-exceeded
  requests stopping *between* pipeline stages (boundary proof
  present).

Usage::

    python benchmarks/bench_parallel.py --smoke --json fresh.json
    python benchmarks/check_results.py fresh.json

Exit status 0 when every gate passes, 1 otherwise (fails the build).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
#: A smoke run may fall this far below the committed figure before the
#: build fails (runner-noise headroom on top of a real floor).
RATIO = 0.8
#: When the committed baseline itself was recorded on a host that
#: could not exhibit multi-core speedup (``speedup_floor_binds``
#: false, e.g. a 1-core container), 80% of that figure would be a
#: vacuous gate — a silently-serial regression (~1.0x) would pass.  A
#: capable runner must instead clear this absolute floor, which a
#: serial execution cannot reach.
ABSOLUTE_FLOOR = 1.15
#: E23 fairness bar: a light tenant's contended p90 may be at most
#: this multiple of its solo p90 while a rate-limited tenant is shed.
FAIRNESS_P90_RATIO = 2.0


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read benchmark payload {path}: {exc}")


def committed_baselines(results_dir: Path) -> dict[str, dict]:
    """Committed figures by experiment id, from ``results/*.json``."""
    baselines: dict[str, dict] = {}
    for path in sorted(results_dir.glob("*.json")):
        payload = load(path)
        experiment = payload.get("experiment")
        if experiment:
            baselines[experiment] = payload
    return baselines


def check_service(fresh: dict, committed: dict) -> list[str]:
    """Gate a service-saturation (E23-style) smoke payload.

    All gates are behavioural, so they bind on any host: the smoke
    fleets are smaller than the committed 64–256-client runs, but a
    protocol error, a missing Retry-After, a starved light tenant, or
    a deadline that failed to stop between stages is a regression at
    any scale.
    """
    failures: list[str] = []
    experiment = fresh.get("experiment", "?")

    protocol_errors = fresh.get("protocol_errors")
    if protocol_errors != 0:
        failures.append(
            f"{experiment}: {protocol_errors!r} protocol errors "
            "(every request must complete or be shed with a typed "
            "rejection)"
        )

    fairness = fresh.get("fairness", {})
    if not fairness.get("heavy_429s", 0):
        failures.append(
            f"{experiment}: the rate limiter never fired — the heavy "
            "tenant was not shed"
        )
    if not fairness.get("retry_after_present", False):
        failures.append(
            f"{experiment}: a 429 arrived without a Retry-After header"
        )
    p90_ratio = fairness.get("p90_ratio")
    if p90_ratio is None or p90_ratio > FAIRNESS_P90_RATIO:
        failures.append(
            f"{experiment}: light-tenant contended p90 is "
            f"{p90_ratio!r}x its solo p90 (bar: "
            f"{FAIRNESS_P90_RATIO}x, committed "
            f"{committed.get('fairness', {}).get('p90_ratio')}x)"
        )

    deadline = fresh.get("deadline", {})
    if not deadline.get("stopped_between_stages", False):
        failures.append(
            f"{experiment}: deadline-exceeded request lost its "
            "between-stages boundary proof "
            f"(detail: {deadline!r})"
        )
    if not deadline.get("generous_deadline_completed", False):
        failures.append(
            f"{experiment}: a generous deadline failed the request"
        )

    if not failures:
        loads = ", ".join(
            f"{row.get('clients')}c/p99={row.get('p99_ms')}ms"
            for row in fresh.get("loads", [])
        )
        print(
            f"{experiment}: 0 protocol errors; fairness p90 ratio "
            f"{p90_ratio:.2f}x <= {FAIRNESS_P90_RATIO}x; "
            f"{fairness.get('heavy_429s')} 429s all with Retry-After; "
            f"deadline stopped before {deadline.get('next_stage')!r} "
            f"[{loads}]"
        )
    return failures


def check(fresh: dict, committed: dict, ratio: float) -> list[str]:
    """Gate one fresh measurement against its committed figure.

    Returns failure messages (empty = pass).
    """
    if "speedup" not in committed:
        return check_service(fresh, committed)
    failures: list[str] = []
    experiment = fresh.get("experiment", "?")

    if not fresh.get("answers_identical", False):
        failures.append(
            f"{experiment}: smoke answers are no longer bit-identical "
            "across worker counts"
        )
    agreement = fresh.get("top3_agreement", 0.0)
    if agreement != 1.0:
        failures.append(
            f"{experiment}: top-3 agreement {agreement} != 1.0"
        )

    cpus = int(fresh.get("cpu_count", 1))
    workers = int(fresh.get("workers", 1))
    if cpus < workers:
        print(
            f"{experiment}: host has {cpus} cpu(s) < {workers} workers; "
            "speedup floor skipped (correctness gates still applied)"
        )
        return failures
    smoke_floor = committed.get("smoke_speedup_floor")
    if smoke_floor is not None and fresh.get("n_rows") != committed.get(
        "n_rows"
    ):
        # Experiments whose speedup grows with scale declare an
        # absolute floor for off-scale smoke runs; a fraction of the
        # full-scale figure would over-gate them.
        floor = float(smoke_floor)
        basis = f"declared smoke floor, committed {committed['speedup']:.2f}x"
    else:
        floor = ratio * float(committed["speedup"])
        basis = f"{ratio:.0%} of committed {committed['speedup']:.2f}x"
        if not committed.get("speedup_floor_binds", True):
            floor = max(floor, ABSOLUTE_FLOOR)
    speedup = float(fresh.get("speedup", 0.0))
    if speedup < floor:
        failures.append(
            f"{experiment}: smoke speedup {speedup:.2f}x fell below the "
            f"floor {floor:.2f}x ({basis}; absolute minimum "
            f"{ABSOLUTE_FLOOR:.2f}x where the baseline host was "
            "core-starved)"
        )
    else:
        print(
            f"{experiment}: speedup {speedup:.2f}x >= floor {floor:.2f}x "
            f"({basis})"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh", nargs="+",
        help="JSON payload(s) written by a benchmark --smoke --json run",
    )
    parser.add_argument(
        "--results-dir", default=str(RESULTS_DIR),
        help="directory of committed benchmark figures",
    )
    parser.add_argument(
        "--ratio", type=float, default=RATIO,
        help="fraction of the committed speedup a smoke run must reach",
    )
    args = parser.parse_args(argv)

    baselines = committed_baselines(Path(args.results_dir))
    if not baselines:
        print(f"no committed speedup figures under {args.results_dir}",
              file=sys.stderr)
        return 1

    failures: list[str] = []
    for fresh_path in args.fresh:
        fresh = load(Path(fresh_path))
        experiment = fresh.get("experiment")
        committed = baselines.get(experiment)
        if committed is None:
            failures.append(
                f"{fresh_path}: no committed figure for experiment "
                f"{experiment!r} under {args.results_dir}"
            )
            continue
        failures.extend(check(fresh, committed, args.ratio))

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("benchmark regression guard: all gates passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
