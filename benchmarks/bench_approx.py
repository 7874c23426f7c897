"""E18 — the approximate exploration core: speed vs. accuracy.

The fidelity refactor's headline claim: with ``fidelity="sketch:<rows>"``
every statistic the pipeline consumes — candidate eligibility, masks,
cut points, joint distributions, covers — is answered by a
:class:`~repro.engine.backends.SketchBackend` from a bounded reservoir
plus one-pass GK/Misra–Gries sketches, so end-to-end exploration cost is
bounded by the budget instead of the table, while ranked answers stay
interchangeable with exact execution.

Three measurements on a ≥1M-row datagen table:

1. **End-to-end workload speedup** — a realistic interactive session
   (survey + drill-downs + repeats) explored at exact and at sketch
   fidelity over fresh contexts; E18 requires ≥5× on 1M rows.
2. **Top-3 ranked-map agreement** — per query, the evaluation harness's
   :func:`~repro.evaluation.metrics.ranked_map_agreement` (symmetrized
   best-match 1 − nVI, measured on the full table); E18 requires ≥0.9.
3. **Anytime first-answer latency** — progressive escalation's first
   (sketch) tick versus a full exact-only exploration.

Usage::

    PYTHONPATH=src python benchmarks/bench_approx.py             # full E18
    PYTHONPATH=src python benchmarks/bench_approx.py --smoke     # CI check

The full run writes ``benchmarks/results/approx_fidelity.txt``; the
smoke run (small table, relaxed thresholds) only prints and asserts,
so committed full-scale numbers are never overwritten by CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datagen import census_table                   # noqa: E402
from repro.engine import explorer                        # noqa: E402
from repro.evaluation.harness import ResultTable         # noqa: E402
from repro.evaluation.metrics import ranked_map_agreement  # noqa: E402
from repro.evaluation.workloads import figure2_query     # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"


def session_workload(table) -> list:
    """A realistic interactive session: survey + drill-downs + repeats."""
    survey = figure2_query()
    answer = explorer(table).explore(survey)
    queries = [None, survey]
    for entry in answer.ranked[:3]:
        queries.extend(entry.map.regions[:2])
    queries += [survey, None]
    return queries


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def run(
    n_rows: int,
    budget: int,
    seed: int,
    *,
    smoke: bool,
    anytime_initial: int,
) -> str:
    fidelity = f"sketch:{budget}"
    table = census_table(n_rows=n_rows, seed=seed)
    queries = session_workload(table)

    # Fresh contexts per variant: each pays its own statistics cold.
    t_exact, exact = timed(lambda: explorer(table).explore_many(queries))
    t_sketch, approx = timed(
        lambda: explorer(table).fidelity(fidelity).explore_many(queries)
    )
    speedup = t_exact / t_sketch if t_sketch > 0 else float("inf")

    agreements = [
        ranked_map_agreement(a, b, table, top_k=3)
        for a, b in zip(exact, approx)
    ]
    mean_agreement = sum(agreements) / len(agreements)
    min_agreement = min(agreements)

    # Anytime: progressive escalation's first answer vs exact-only.
    t_first, first = timed(
        lambda: next(
            explorer(table).anytime(
                figure2_query(), initial_size=anytime_initial
            ).ticks()
        )
    )
    t_exact_one, _ = timed(lambda: explorer(table).explore(figure2_query()))
    first_speedup = t_exact_one / t_first if t_first > 0 else float("inf")

    report = ResultTable(
        ["measurement", "exact", f"sketch ({fidelity})", "ratio"],
        title=(
            f"E18: approximate exploration core — census, {n_rows:,} rows, "
            f"{len(queries)}-query session, seed {seed}"
        ),
    )
    report.add_row(
        ["end-to-end workload (s)", f"{t_exact:.3f}", f"{t_sketch:.3f}",
         f"{speedup:.1f}x"]
    )
    report.add_row(
        ["rows scanned per query", n_rows, min(budget, n_rows), ""]
    )
    report.add_row(
        ["top-3 map agreement (mean)", "1.000", f"{mean_agreement:.4f}", ""]
    )
    report.add_row(
        ["top-3 map agreement (min)", "1.000", f"{min_agreement:.4f}", ""]
    )
    report.add_row(
        [
            "anytime first answer (s)",
            f"{t_exact_one:.3f}",
            f"{t_first:.3f} (tick 0 @ {first.sample_size} rows)",
            f"{first_speedup:.1f}x",
        ]
    )
    text = report.render()
    print()
    print(text)

    if smoke:
        # CI health check: the fidelity switch works end to end and the
        # approximate answers resemble the exact ones.  No speed claims
        # on tiny tables / noisy runners.
        assert mean_agreement >= 0.75, (
            f"smoke agreement {mean_agreement:.3f} < 0.75"
        )
        assert all(m.fidelity.startswith("sketch:") for m in approx)
        assert first.fidelity.startswith("sketch:")
    else:
        # The E18 acceptance thresholds.
        assert speedup >= 5.0, f"E18 needs >=5x, measured {speedup:.2f}x"
        assert mean_agreement >= 0.9, (
            f"E18 needs top-3 agreement >=0.9, measured {mean_agreement:.4f}"
        )
        assert t_first < t_exact_one, (
            f"anytime first answer ({t_first:.3f}s) not faster than "
            f"exact-only ({t_exact_one:.3f}s)"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "approx_fidelity.txt").write_text(text + "\n")
        print(f"\nwrote {RESULTS_DIR / 'approx_fidelity.txt'}")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="table size for the full experiment")
    parser.add_argument("--budget", type=int, default=20_000,
                        help="sketch fidelity row budget")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small, assertion-only CI run (50k rows; no results file)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        run(
            50_000, 5_000, args.seed, smoke=True, anytime_initial=2_000
        )
        print("\nsmoke ok")
    else:
        run(
            args.rows, args.budget, args.seed, smoke=False,
            anytime_initial=max(1000, args.budget // 4),
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
