"""Compare two benchmark documents: ``compare.py PARENT.json CHANGE.json``.

Each document is what ``run.py --workload all --out FILE`` wrote.  For
every pairing of end-to-end metric and workload the verdict is

``ok``
    the change's median is no worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``regressed``
    it is worse by more than the bound;
``unresolved``
    the parent's own run-to-run spread (the distance between the
    quartiles of its runs, as a share of their median) is wider than the
    bound, so the runs cannot tell — unless every run of the change
    reads better than every run of the parent, which is ``ok``.

A document written with ``--repeat 1`` has no spread, and its verdicts
rest on single runs.  Exits 1 when anything regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from atlas_e2e.spec import Metric, load_spec  # noqa: E402
from atlas_e2e.stats import spread_share  # noqa: E402


def worse_by(metric: Metric, parent: float, change: float) -> float:
    """How much worse the change reads, as a share of the parent."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if metric.better == "lower" else -delta


def all_better(metric: Metric, parent: list[float], change: list[float]) -> bool:
    if metric.better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def verdict(metric: Metric, parent: list[float], change: list[float]) -> tuple[str, float, float]:
    """``(verdict, worse_by, parent spread)`` for one metric on one workload."""
    if metric.bound is None:
        raise ValueError(f"{metric.name} has no bound to compare against")
    worse = worse_by(metric, statistics.median(parent), statistics.median(change))
    spread = spread_share(parent)
    if spread > metric.bound and not all_better(metric, parent, change):
        return "unresolved", worse, spread
    return ("regressed" if worse > metric.bound else "ok"), worse, spread


def runs_of(document: dict, workload: str, metric: str) -> list[float]:
    return [run["end_to_end"][metric] for run in document["workloads"][workload]["runs"]]


def compare(parent: dict, change: dict) -> list[tuple[str, str, str, float, float]]:
    spec = load_spec()
    rows = []
    for workload in spec.workloads:
        for name, metric in spec.end_to_end.items():
            outcome, worse, spread = verdict(
                metric, runs_of(parent, workload, name), runs_of(change, workload, name)
            )
            rows.append((workload, name, outcome, worse, spread))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows = compare(parent, change)
    print(f"{'workload':20s} {'metric':12s} {'verdict':10s} {'worse by':>9s} {'spread':>8s}")
    for workload, name, outcome, worse, spread in rows:
        print(f"{workload:20s} {name:12s} {outcome:10s} {worse:+9.1%} {spread:8.1%}")
    failed = sum(run["failed"] for entry in change["workloads"].values() for run in entry["runs"])
    print(f"failed ops in the change: {failed}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
