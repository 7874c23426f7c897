"""E24 — persistent store: cold boot vs warm start, bit-identically.

The scenario is a service restart over a 1M-row document table
(:func:`repro.datagen.support_tickets_table` — numeric, categorical,
and text columns, titles assembled row-by-row in Python on purpose:
regenerating the table is the honest "cold boot" cost).  Two runs of
the same mixed numeric+text exploration:

1. **Cold boot** — a fresh service with an empty store: register the
   generator spec with ``persist=True`` (generation + write-through),
   then answer the first explore (reservoir + sketch build from
   scratch).  The explore also persists the built sketch summary.
2. **Warm start** — a *new* service over the same store file: the
   catalog pre-registers the stored table, the append-log replay
   decodes raw column buffers instead of regenerating, and the first
   explore adopts the persisted summary instead of rebuilding.

Gates: the warm answer must be **bit-identical** to the cold one
(:func:`map_set_fingerprint` — the warm-start contract), and the warm
time-to-first-answer must beat the cold boot by >=10x at full scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py           # full E24
    PYTHONPATH=src python benchmarks/bench_store.py --smoke   # CI check
    PYTHONPATH=src python benchmarks/bench_store.py --smoke --json out.json

The full run writes ``benchmarks/results/store_warmstart.json``
(E24's gates are ``tests/store/test_warm_start_gate.py``); the smoke run
only prints/asserts unless ``--json`` names an output file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import AtlasConfig, Fidelity  # noqa: E402
from repro.evaluation.harness import ResultTable  # noqa: E402
from repro.evaluation.metrics import (  # noqa: E402
    map_set_fingerprint,
    ranked_map_agreement,
)
from repro.service.service import ExplorationService  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "store_warmstart.json"

TABLE = "support_tickets"
#: Mixed numeric + text exploration: cut hours_open inside the slice of
#: tickets whose title carries the "disk" token (storage vocabulary).
QUERIES = (
    "hours_open: [0, 48]\ntitle: match 'disk'",
    "severity: {'critical', 'high'}\ntitle: contains 'outage'",
)


def boot_and_explore(
    path: str, spec: dict | None, config: AtlasConfig
) -> tuple[float, list, dict, object]:
    """One service lifetime: boot (+ optional registration), explore.

    Returns (seconds to last first-time answer, responses, metrics
    snapshot, served table).  ``spec=None`` is the warm path: the
    catalog must find the table in the store.
    """
    start = time.perf_counter()
    service = ExplorationService(max_workers=1, store=path)
    try:
        if spec is not None:
            service.register(spec, persist=True)
        responses = [
            service.explore(TABLE, query, config=config, use_cache=False)
            for query in QUERIES
        ]
        elapsed = time.perf_counter() - start
        return elapsed, responses, service.metrics(), service._resolve_table(TABLE)
    finally:
        service.close()


def run(
    n_rows: int,
    budget: int,
    n_entities: int,
    seed: int,
    *,
    smoke: bool,
    json_path: str | None,
) -> dict:
    config = AtlasConfig(
        fidelity=Fidelity.sketch(budget_rows=budget), seed=seed
    )
    spec = {
        "generator": TABLE,
        "n_rows": n_rows,
        "seed": seed,
        "n_entities": n_entities,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/atlas.db"
        cold_seconds, cold, cold_metrics, table = boot_and_explore(
            path, spec, config
        )
        warm_seconds, warm, warm_metrics, _ = boot_and_explore(
            path, None, config
        )
        store_bytes = os.path.getsize(path)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    identical = [
        map_set_fingerprint(a.map_set) == map_set_fingerprint(b.map_set)
        for a, b in zip(cold, warm)
    ]
    agreement = [
        ranked_map_agreement(a.map_set, b.map_set, table, top_k=3)
        for a, b in zip(cold, warm)
    ]
    mean_agreement = sum(agreement) / len(agreement)
    persisted = cold_metrics["requests"]["summaries_persisted"]
    warm_starts = warm_metrics["requests"]["warm_starts"]

    report = ResultTable(
        ["measurement", "cold boot", "warm start", "ratio"],
        title=(
            f"E24: persistent store warm start — {TABLE}, "
            f"{n_rows:,} rows, sketch:{budget}, seed {seed}"
        ),
    )
    report.add_row(
        ["time to first answers (s)", f"{cold_seconds:.3f}",
         f"{warm_seconds:.3f}", f"{speedup:.2f}x"]
    )
    report.add_row(
        ["answers bit-identical", f"{sum(identical)}/{len(identical)}",
         "", ""]
    )
    report.add_row(
        ["top-3 agreement (mean)", f"{mean_agreement:.4f}", "", ""]
    )
    report.add_row(
        ["summaries persisted / adopted", str(persisted),
         str(warm_starts), ""]
    )
    report.add_row(
        ["store size (MiB)", "", f"{store_bytes / 2**20:.1f}", ""]
    )
    text = report.render()
    print()
    print(text)

    assert all(identical), (
        "warm start changed an answer: query "
        f"{identical.index(False)} differs"
    )
    assert mean_agreement == 1.0, mean_agreement
    assert persisted >= 1, "cold run persisted no sketch summary"
    assert warm_starts >= 1, "warm run never adopted a persisted summary"
    assert speedup > 1.0, (
        f"warm start must beat cold boot, measured {speedup:.2f}x"
    )
    # Regeneration cost grows with the table while warm decode stays
    # near-linear in the (much smaller) buffers; the 10x bar only makes
    # sense at full scale.
    if not smoke:
        assert speedup >= 10.0, (
            f"E24 needs >=10x warm-start speedup at full scale, "
            f"measured {speedup:.2f}x ({cold_seconds:.2f}s -> "
            f"{warm_seconds:.2f}s)"
        )

    payload = {
        "experiment": "E24",
        "mode": "smoke" if smoke else "full",
        "n_rows": n_rows,
        "n_entities": n_entities,
        "budget_rows": budget,
        "workers": 1,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "queries": list(QUERIES),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "speedup": round(speedup, 4),
        "speedup_floor_binds": True,
        # Warm-start gains grow with table size (cold boot pays per-row
        # generation), so off-scale smoke runs are gated by this
        # absolute floor instead of a fraction of the full figure.
        "smoke_speedup_floor": 2.0,
        "answers_identical": all(identical),
        "top3_agreement": mean_agreement,
        "summaries_persisted": persisted,
        "warm_starts": warm_starts,
        "store_bytes": store_bytes,
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table size for the full experiment")
    parser.add_argument("--budget", type=int, default=20_000,
                        help="sketch fidelity row budget")
    parser.add_argument("--entities", type=int, default=2_000,
                        help="distinct ticket entities (title cardinality)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small, assertion-only CI run (no results file unless --json)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the measurement payload to this file",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows = min(args.rows, 30_000)
        args.budget = min(args.budget, 3_000)
        args.entities = min(args.entities, 300)
    run(
        args.rows,
        args.budget,
        args.entities,
        args.seed,
        smoke=args.smoke,
        json_path=args.json,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
