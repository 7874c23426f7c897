"""E21 — distributed scatter/gather serving: cluster answers, identical bits.

The cluster tier (:mod:`repro.cluster`) fans the sharded sketch build
out to shard-server processes over HTTP and folds the per-shard
results with exactly the local merge rules.  Two claims to measure on
the 1M-row census session, against the serial executor over the *same*
shard layout:

1. **Bit-identical answers** — every answer of the session (cold
   build, root + survey + drill-downs, and re-answers after streamed
   appends) compared by
   :func:`map_set_fingerprint` at 1, 2, and 4 shard servers.  E21
   requires equality unconditionally: the server count is a pure
   wall-clock knob, exactly like E20's worker count.
2. **Speedup** — wall-clock of the cold session at 4 servers vs the
   serial baseline, measured at *steady state* (column placement
   excluded: a throwaway build pushes each shard's values first, the
   measured session then scans server-resident state — the serving
   scenario the coordinator's lazy re-attach exists for).  The floor
   is asserted only on hosts with at least as many cores as servers;
   a 1-core container still proves bit-identity and records the
   figures.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py           # full E21
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke   # CI check
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke --json out.json

The full run writes ``benchmarks/results/cluster_speedup.json``
(E21's gates are ``tests/cluster/test_e21_gate.py``); the smoke run only
prints/asserts unless ``--json`` names an output file, so committed
full-scale numbers are never overwritten by CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import (                               # noqa: E402
    attach_cluster,
    detach_cluster,
    spawn_local_cluster,
)
from repro.core.config import AtlasConfig, Fidelity, Parallelism  # noqa: E402
from repro.datagen import census_table, split_for_streaming  # noqa: E402
from repro.engine.context import ExecutionContext         # noqa: E402
from repro.engine.pipeline import Pipeline                # noqa: E402
from repro.evaluation.harness import ResultTable          # noqa: E402
from repro.evaluation.metrics import (                    # noqa: E402
    map_set_fingerprint,
    ranked_map_agreement,
)
from repro.evaluation.workloads import figure2_query      # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "cluster_speedup.json"


def run_session(initial, batches, config: AtlasConfig) -> tuple[float, list]:
    """One cold session plus streamed appends.

    Build statistics, answer root + survey + top-map drill-downs, then
    append each batch and re-answer the survey at every version.
    Returns (cold-session seconds, all answers in order).
    """
    pipeline = Pipeline.default()
    survey = figure2_query()
    started = time.perf_counter()
    context = ExecutionContext(initial, config)
    answers = [pipeline.run(None, context), pipeline.run(survey, context)]
    for entry in answers[1].ranked[:3]:
        answers.extend(
            pipeline.run(region, context)
            for region in entry.map.regions[:2]
        )
    elapsed = time.perf_counter() - started
    current = initial
    for batch in batches:
        current = current.append(batch)
        context.advance(current)
        answers.append(pipeline.run(survey, context))
    return elapsed, answers


def run(
    n_rows: int,
    budget: int,
    server_counts: tuple[int, ...],
    shards: int,
    seed: int,
    *,
    smoke: bool,
    json_path: str | None,
) -> dict:
    cpus = os.cpu_count() or 1
    table = census_table(n_rows=n_rows, seed=seed)
    initial, batches = split_for_streaming(table, n_batches=2)
    fidelity = Fidelity.sketch(budget_rows=budget)

    serial_config = AtlasConfig(
        fidelity=fidelity,
        parallelism=Parallelism(workers=1, shards=shards),
        seed=seed,
    )
    t_serial, serial_answers = run_session(initial, batches, serial_config)
    serial_prints = [map_set_fingerprint(a) for a in serial_answers]

    cluster_config = AtlasConfig(
        fidelity=fidelity, parallelism="cluster", seed=seed
    )
    per_count: dict[int, dict] = {}
    for n_servers in server_counts:
        servers = spawn_local_cluster(n_servers)
        try:
            coordinator = attach_cluster([s.url for s in servers])
            # Steady state: place the columns once, outside the clock.
            ExecutionContext(initial, cluster_config).stats()
            t_cluster, answers = run_session(initial, batches,
                                             cluster_config)
            prints = [map_set_fingerprint(a) for a in answers]
            per_count[n_servers] = {
                "seconds": t_cluster,
                "identical": prints == serial_prints,
                "agreement": sum(
                    ranked_map_agreement(a, b, initial, top_k=3)
                    for a, b in zip(serial_answers, answers)
                ) / len(answers),
                "shard_retries": coordinator.metrics()["shard_retries"],
            }
        finally:
            detach_cluster()
            for server in servers:
                server.terminate()

    top_servers = max(server_counts)
    speedup = (
        t_serial / per_count[top_servers]["seconds"]
        if per_count[top_servers]["seconds"] > 0 else float("inf")
    )
    identical = all(entry["identical"] for entry in per_count.values())
    mean_agreement = sum(
        entry["agreement"] for entry in per_count.values()
    ) / len(per_count)

    report = ResultTable(
        ["shard servers", "session (s)", "vs serial", "bit-identical"],
        title=(
            f"E21: distributed scatter/gather — census, {n_rows:,} rows, "
            f"sketch:{budget}, {shards} shards, seed {seed}, {cpus} cpu(s); "
            f"serial baseline {t_serial:.3f}s (appends included in "
            "identity, placement excluded from the clock)"
        ),
    )
    for n_servers in server_counts:
        entry = per_count[n_servers]
        report.add_row([
            str(n_servers),
            f"{entry['seconds']:.3f}",
            f"{t_serial / entry['seconds']:.2f}x",
            "yes" if entry["identical"] else "NO",
        ])
    text = report.render()
    print()
    print(text)

    # The E20 guard, extended across the wire: unconditional.
    assert identical, (
        "a shard-server count changed an answer: "
        f"{ {n: e['identical'] for n, e in per_count.items()} }"
    )
    assert mean_agreement == 1.0, mean_agreement
    # The wall-clock floor only binds where the hardware can deliver
    # it; a 1-core container still proves wire-level determinism.
    if not smoke and cpus >= top_servers:
        assert speedup >= 1.5, (
            f"E21 needs >=1.5x at {top_servers} servers on a {cpus}-cpu "
            f"host, measured {speedup:.2f}x"
        )

    payload = {
        "experiment": "E21",
        "mode": "smoke" if smoke else "full",
        "n_rows": n_rows,
        "budget_rows": budget,
        "workers": top_servers,  # servers
        "server_counts": list(server_counts),
        "shards": shards,
        "seed": seed,
        "cpu_count": cpus,
        "serial_seconds": round(t_serial, 4),
        "cluster_seconds": {
            str(n): round(entry["seconds"], 4)
            for n, entry in per_count.items()
        },
        "speedup": round(speedup, 4),
        "speedup_floor_binds": cpus >= top_servers,
        "answers_identical": identical,
        "top3_agreement": mean_agreement,
        "shard_retries": sum(
            entry["shard_retries"] for entry in per_count.values()
        ),
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
    parser.add_argument("--shards", type=int, default=8,
                        help="row-range shards (fixed across server counts)")
    parser.add_argument("--seed", type=int, default=0)
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
        run(60_000, 5_000, (2,), args.shards, args.seed,
            smoke=True, json_path=args.json)
        print("\nsmoke ok")
    else:
        run(args.rows, args.budget, (1, 2, 4), args.shards, args.seed,
            smoke=False, json_path=args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
