"""The end-to-end benchmark: one command, six workloads.

The benchmark contract (``BENCHMARK.json`` at the repository root)::

    python3 benchmarks/e2e/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

runs one workload as a closed loop for ``--seconds`` seconds, checks the
answers against an in-process oracle, prints every metric by name with
its unit, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the traced pass and the layer probes and reports the
per-layer metrics.

For people::

    python3 benchmarks/e2e/run.py --workload all --out BENCH.json \\
        [--repeat 3] [--trace-out spans.jsonl] [--smoke]

runs every workload untraced (``--repeat`` times) and traced (once), each
run in a process of its own, and writes one JSON document (see README.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from atlas_e2e.report import RunResult, run_workload  # noqa: E402
from atlas_e2e.spec import BenchmarkSpec, load_spec  # noqa: E402
from atlas_e2e.workloads import SMOKE_SCALE, WORKLOADS  # noqa: E402

#: On the result line, a per-layer metric whose probe could not run.
NOT_MEASURED = -1.0


def info_block(seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    src_loc = 0
    for path in (ROOT / "src").rglob("*.py"):
        with open(path, "rb") as handle:
            src_loc += sum(1 for _ in handle)
    return {
        "git_commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # The roadmap's tracked design number; deliberately not an
        # end-to-end metric, so that adding code is not a regression.
        "src_loc": src_loc,
    }


def check_names(spec: BenchmarkSpec, result: RunResult) -> None:
    """The metrics printed are exactly the ones ``BENCHMARK.json`` names."""
    expected = set(spec.per_layer if result.traced else spec.end_to_end)
    got = set(result.metrics)
    if got != expected:
        raise SystemExit(
            f"{result.workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected - got)}, extra {sorted(got - expected)}"
        )


def print_metrics(spec: BenchmarkSpec, result: RunResult) -> None:
    units = spec.per_layer if result.traced else spec.end_to_end
    kind = "traced" if result.traced else "untraced"
    print(f"# {result.workload} ({kind}, seed {result.seed})")
    for name, value in result.metrics.items():
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"{name:36s} {shown:>14s} {units[name].unit}")
    print(f"{'ops attempted':36s} {result.attempted:>14d} count")
    print(f"{'ops failed':36s} {result.failed:>14d} count")
    for failure in result.failures[:10]:
        print(f"  failed: {failure}")
    for note in result.detail.get("probe_notes", ()):
        print(f"  probe not run: {note}")


def result_line(spec: BenchmarkSpec, result: RunResult) -> str:
    units = spec.per_layer if result.traced else spec.end_to_end
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {
                    "value": NOT_MEASURED if value is None else value,
                    "unit": units[name].unit,
                }
                for name, value in result.metrics.items()
            },
        }
    )


def describe(name: str) -> dict:
    workload = WORKLOADS[name]
    return {
        "why": workload.why,
        "path": workload.path,
        "clients": workload.clients,
        "table": workload.table_name,
        "table_rows": workload.table_rows,
        "fidelity": workload.fidelity,
        "warmup_ops": workload.warmup_ops,
    }


def run_child(args: argparse.Namespace, name: str, trace: int, scratch: Path) -> dict:
    """One workload run in a process of its own; returns its ``--out`` result.

    A fresh process per run keeps ``peak_rss_mb`` (a process-lifetime
    high-water mark) and the allocator's state from leaking from one
    workload into the next.
    """
    out = scratch / "result.json"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(trace), "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        command += ["--trace-out", f"{args.trace_out}.{name}"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate()
        except BaseException:
            # SIGTERM, not the SIGKILL ``subprocess.run`` would send: the
            # child has shard servers of its own to stop.
            child.terminate()
            raise
    # Everything but the child's result line, which the document replaces.
    print("\n".join(stdout.splitlines()[:-1]))
    if child.returncode != 0:
        raise SystemExit(f"{name}: the run exited with code {child.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_all(spec: BenchmarkSpec, args: argparse.Namespace, scale: float, scratch: Path) -> str:
    """Every workload, untraced then traced; returns the result line."""
    document = {
        "claim": None,
        "info": info_block(args.seed),
        "seconds": args.seconds,
        "scale": scale,
        "bounds": {name: metric.bound for name, metric in spec.end_to_end.items()},
        "workloads": {},
    }
    attempted = failed = 0

    def entry_of(result: dict, metrics_key: str) -> dict:
        nonlocal attempted, failed
        attempted += result["attempted"]
        failed += result["failed"]
        counts = {key: result[key] for key in ("attempted", "failed", "failures")}
        return {metrics_key: result["metrics"], **counts, **result["detail"]}

    for name in WORKLOADS:
        entry = describe(name)
        entry["runs"] = [
            entry_of(run_child(args, name, 0, scratch), "end_to_end") for _ in range(args.repeat)
        ]
        entry["traced"] = entry_of(run_child(args, name, 1, scratch), "per_layer")
        document["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}
    )


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result (all: the whole document) as JSON here")
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload (all)")
    parser.add_argument("--smoke", action="store_true", help="small tables (CI check)")
    args = parser.parse_args(argv)
    if set(WORKLOADS) != set(spec.workloads):
        raise SystemExit("the harness's workloads differ from BENCHMARK.json's")

    # SIGTERM unwinds like an exception, so shard servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scale = SMOKE_SCALE if args.smoke else 1.0
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=work_root) as tmp:
        if args.workload == "all":
            line = run_all(spec, args, scale, Path(tmp))
        else:
            result = run_workload(
                args.workload,
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                scale=scale,
                workdir=Path(tmp),
                trace_out=args.trace_out,
            )
            check_names(spec, result)
            print_metrics(spec, result)
            if args.out:
                Path(args.out).write_text(
                    json.dumps(dataclasses.asdict(result)) + "\n", encoding="utf-8"
                )
            line = result_line(spec, result)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
