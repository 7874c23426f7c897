"""Self-test of the end-to-end harness (collected by the tier-1 suite).

The maths the metrics rest on, the determinism of the op streams, the
agreement between the harness and ``BENCHMARK.json``, and a small-scale
run of all six workloads that must end with no failed op.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from atlas_e2e import opstream, report, spec  # noqa: E402
from atlas_e2e.spans import Span, SpanRecorder, self_time_by_name, self_times  # noqa: E402
from atlas_e2e.stats import block_medians, percentile, spread_share  # noqa: E402
from atlas_e2e.workloads import SMOKE_SCALE, WORKLOADS, is_traced  # noqa: E402

SPEC = spec.load_spec()

# ---------------------------------------------------------------------- #
# Percentile, block and spread maths
# ---------------------------------------------------------------------- #


def test_percentile_interpolates_linearly():
    samples = [40.0, 10.0, 30.0, 20.0]
    assert percentile(samples, 0) == 10.0
    assert percentile(samples, 100) == 40.0
    assert percentile(samples, 50) == 25.0
    assert percentile(samples, 90) == pytest.approx(37.0)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 101)


def test_block_medians_split_in_completion_order():
    samples = [float(i) for i in range(1, 11)]
    assert block_medians(samples, 5) == [1.5, 3.5, 5.5, 7.5, 9.5]
    assert block_medians([3.0, 1.0], 5) == [3.0, 1.0]
    assert block_medians([], 5) == []
    # 7 samples in 3 blocks: slices of 2, 2 and 3.
    assert block_medians([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 3) == [1.5, 3.5, 6.0]


def test_spread_share_is_quartile_distance_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert spread_share(values) == pytest.approx((9.0 - 3.0) / 6.0)
    assert spread_share([5.0]) == 0.0
    assert spread_share([4.0, 4.0, 4.0]) == 0.0


# ---------------------------------------------------------------------- #
# Spans and self time
# ---------------------------------------------------------------------- #


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(1, "op", 0, 100, None, 1),
        Span(2, "client.encode", 0, 10, 1, 1),
        Span(3, "transport", 10, 90, 1, 1),
        Span(4, "server.pipeline", 30, 90, 3, 1),
        Span(5, "stage.candidates", 30, 50, 4, 1),
        Span(6, "stage.clustering", 50, 85, 4, 1),
        Span(7, "client.decode", 90, 98, 1, 1),
    ]
    own = self_times(spans)
    assert own == {1: 2, 2: 10, 3: 20, 4: 5, 5: 20, 6: 35, 7: 8}
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == 100
    assert self_time_by_name(spans)["transport"] == [20]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span(1, "cluster.build", 0, 100, None, 1),
        # Two shard-server blocks scanned in parallel.
        Span(2, "block", 10, 60, 1, 1),
        Span(3, "block", 20, 80, 1, 1),
        # A child reported longer than its parent lasted.
        Span(4, "late", 90, 140, 1, 1),
    ]
    assert self_times(spans)[1] == 100 - 70 - 10


def test_recorder_nests_spans_and_writes_json_lines(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("op") as root:
        with recorder.span("transport", root) as transport:
            pass
        recorder.add("server.pipeline", 5, 9, transport)
    with recorder.span("op") as other:
        pass
    by_name = {s.name: s for s in recorder.spans[:3]}
    assert by_name["transport"].parent == root.span_id
    assert by_name["server.pipeline"].parent == transport.span_id
    assert {s.op_id for s in recorder.spans[:3]} == {root.op_id}
    assert other.op_id != root.op_id
    assert transport.end_ns >= by_name["transport"].start_ns
    path = tmp_path / "spans.jsonl"
    recorder.write(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4
    assert set(lines[0]) == {"span_id", "name", "start_ns", "end_ns", "parent", "op_id"}


def test_traced_phase_alternates_in_blocks():
    flags = [is_traced(i) for i in range(40)]
    assert flags[:10] == [False] * 10 and flags[10:20] == [True] * 10
    assert flags[20:30] == [False] * 10 and flags[30:] == [True] * 10


# ---------------------------------------------------------------------- #
# Op streams
# ---------------------------------------------------------------------- #

NUMERIC = [opstream.NumericDim(name, -5.0, 20.0) for name in ("a", "b", "c", "d", "e")]
CATEGORICAL = [
    opstream.CategoricalDim("kind", ("x", "y", "z")),
    opstream.CategoricalDim("size", ("small", "large")),
]


def take(stream, n=50):
    return list(itertools.islice(stream, n))


def streams(seed, client=0):
    rng = lambda purpose: opstream.stream_rng(seed, client, purpose)  # noqa: E731
    return (
        take(opstream.numeric_queries(NUMERIC, rng("ops"))),
        take(opstream.range_and_set_queries(NUMERIC[0], CATEGORICAL, rng("ops"))),
        take(opstream.replay(32, rng("ops"))),
    )


def test_op_streams_repeat_for_equal_seeds_and_differ_otherwise():
    assert streams(7) == streams(7)
    for same, other in zip(streams(7), streams(8)):
        assert same != other
    # Two clients of one run do not send the same stream either.
    for same, other in zip(streams(7, client=0), streams(7, client=1)):
        assert same != other


def test_generated_queries_follow_the_span_rule_and_parse():
    from repro.query.parser import parse_query

    numeric, mixed, _ = streams(3)
    for text in numeric:
        lines = text.split("\n")
        assert 1 <= len(lines) <= 4
        for line in lines:
            low, high = (float(v) for v in re.fullmatch(r"\w: \[(.+), (.+)\]", line).groups())
            assert -5.0 <= low < high <= 20.0 + 1e-9
            assert 0.3 * 25.0 - 1e-9 <= high - low <= 25.0 + 1e-9
        assert len(parse_query(text).predicates) == len(lines)
    assert len(set(mixed)) == len(mixed)  # continuous bounds: all distinct
    for text in mixed:
        assert text.startswith("a: [")
        parse_query(text)


# ---------------------------------------------------------------------- #
# BENCHMARK.json
# ---------------------------------------------------------------------- #

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_benchmark_file_meets_the_contract():
    document = json.loads(spec.BENCHMARK_FILE.read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = SPEC.end_to_end["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in SPEC.end_to_end.values())


def test_harness_and_benchmark_file_name_the_same_workloads():
    assert list(WORKLOADS) == list(SPEC.workloads)
    for name, workload in WORKLOADS.items():
        assert workload.why == SPEC.workloads[name]
        assert workload.clients <= 2


# ---------------------------------------------------------------------- #
# compare.py
# ---------------------------------------------------------------------- #


def document(**p50_by_workload):
    flat = {"op_p50_ms": 10.0, "op_p90_ms": 20.0, "ops_per_s": 100.0, "setup_s": 1.0,
            "peak_rss_mb": 100.0}
    return {
        "workloads": {
            name: {
                "runs": [
                    {"end_to_end": {**flat, "op_p50_ms": value}, "failed": 0}
                    for value in p50_by_workload.get(name, [10.0])
                ]
            }
            for name in SPEC.workloads
        }
    }


def verdicts(parent, change):
    return {(w, m): v for w, m, v, _, _ in compare.compare(parent, change)}


def test_compare_verdicts():
    bound = SPEC.end_to_end["op_p50_ms"].bound
    steady = [10.0, 10.01, 9.99, 10.0, 10.005]
    # Quartiles 2 * bound apart: wider than the bound, whatever it is.
    noisy = [10.0 * (1 + bound * k) for k in (-1.5, -1.0, 0.0, 1.0, 1.5)]
    parent = document(
        inproc_exact=steady, async_sketch=steady, cached_blocking=noisy, warm_restart=noisy
    )
    change = document(
        inproc_exact=[v * (1 + 0.5 * bound) for v in steady],  # inside the bound
        async_sketch=[v * (1 + 1.5 * bound) for v in steady],  # outside it
        cached_blocking=noisy,  # spread wider than the bound
        warm_restart=[1.0, 1.2, 1.1],  # noisy parent, but every run better
    )
    got = verdicts(parent, change)
    assert got[("inproc_exact", "op_p50_ms")] == "ok"
    assert got[("async_sketch", "op_p50_ms")] == "regressed"
    assert got[("cached_blocking", "op_p50_ms")] == "unresolved"
    assert got[("warm_restart", "op_p50_ms")] == "ok"
    assert got[("async_sketch", "ops_per_s")] == "ok"
    # "higher is better" metrics regress downwards.
    slower = document()
    for run in slower["workloads"]["stream_persist"]["runs"]:
        run["end_to_end"]["ops_per_s"] = 100.0 * (1 - 1.5 * SPEC.end_to_end["ops_per_s"].bound)
    assert verdicts(document(), slower)[("stream_persist", "ops_per_s")] == "regressed"


def test_compare_exit_code(tmp_path, capsys):
    parent, change = tmp_path / "a.json", tmp_path / "b.json"
    parent.write_text(json.dumps(document()))
    change.write_text(json.dumps(document(inproc_exact=[20.0])))  # twice the parent's
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(change)]) == 1
    assert "regressed" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# All six workloads, small
# ---------------------------------------------------------------------- #


def smoke(name, tmp_path, *, trace):
    workload = WORKLOADS[name](seed=5, scale=SMOKE_SCALE, workdir=tmp_path)
    if trace:
        return report.run_traced(workload, 1.0, tmp_path, str(tmp_path / "spans.jsonl"))
    return report.run_untraced(workload, 0.5, setup_repeats=1)


@pytest.mark.parametrize("name", [n for n in WORKLOADS if n != "cluster_cold_build"])
def test_smoke_untraced(name, tmp_path):
    result = smoke(name, tmp_path, trace=False)
    assert result.failures == [] and result.failed == 0 and result.correct
    assert result.attempted >= 1
    assert set(result.metrics) == set(SPEC.end_to_end)
    assert all(value > 0 for value in result.metrics.values())
    assert len(result.detail["op_p50_ms_blocks"]) >= 1


def test_smoke_traced_cluster(tmp_path):
    # The one traced smoke run: this workload brings its own shard
    # servers, which the cluster probe reuses instead of spawning two.
    result = smoke("cluster_cold_build", tmp_path, trace=True)
    assert result.failures == [] and result.failed == 0
    assert result.detail["probe_notes"] == []
    assert set(result.metrics) == set(SPEC.per_layer)
    assert all(value is not None for value in result.metrics.values())
    assert result.metrics["service.pending_after"] == 0
    assert result.metrics["cluster.shard_retries"] == 0
    # The scatter/gather build is what this workload's ops wait for.
    assert result.metrics["stage.sampling_ms"] > result.metrics["stage.ranking_ms"]
    assert {"op", "service.explore", "server.pipeline"} <= set(result.detail["span_self_ms"])
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(spans) == result.detail["spans"]
