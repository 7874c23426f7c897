"""``BENCHMARK.json``: the metric and workload names, units and bounds.

The file at the repository root is the single statement of what the
benchmark reports; the harness reads it back so a metric it prints can
be neither missing from the file nor extra to it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

#: The repository root: ``benchmarks/e2e/atlas_e2e/spec.py`` -> 3 up.
REPO_ROOT = Path(__file__).resolve().parents[3]
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: ``"lower"`` or ``"higher"``.
    better: str
    #: Share of the parent's median the metric may worsen by; None for
    #: per-layer metrics, which have no bound.
    bound: float | None = None


@dataclasses.dataclass(frozen=True)
class BenchmarkSpec:
    run_seconds: int
    workloads: dict[str, str]
    end_to_end: dict[str, Metric]
    per_layer: dict[str, Metric]


def load_spec(path: Path = BENCHMARK_FILE) -> BenchmarkSpec:
    document = json.loads(path.read_text(encoding="utf-8"))
    return BenchmarkSpec(
        run_seconds=int(document["run_seconds"]),
        workloads={w["name"]: w["why"] for w in document["workloads"]},
        end_to_end={m["name"]: Metric(**m) for m in document["end_to_end"]},
        per_layer={m["name"]: Metric(**m) for m in document["per_layer"]},
    )
