"""E21's behavioural gate: a cluster-built session answers exactly as
the serial executor over the same shard layout.

The session is ``run_session``: cold build, root, survey, the two
first regions of the survey's top-3 maps, then two appends with the
survey re-answered at each version — the appends exercise ``advance``
on a cluster-built backend, whose successor maintains the merged state
locally.  E21's old wall-clock speed-up floor is retired; only the
behaviour is checked.
"""

from __future__ import annotations

from repro.cluster import attach_cluster
from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table, split_for_streaming
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.evaluation.metrics import map_set_fingerprint, ranked_map_agreement
from repro.evaluation.workloads import figure2_query

#: Smoke scale: 60k rows in 8 shards, a 5,000-row budget.
N_ROWS, BUDGET, SHARDS, SEED = 60_000, 5_000, 8, 0


def run_session(initial, batches, config: AtlasConfig) -> list:
    pipeline = Pipeline.default()
    survey = figure2_query()
    context = ExecutionContext(initial, config)
    answers = [pipeline.run(None, context), pipeline.run(survey, context)]
    for entry in answers[1].ranked[:3]:
        answers.extend(
            pipeline.run(region, context) for region in entry.map.regions[:2]
        )
    current = initial
    for batch in batches:
        current = current.append(batch)
        context.advance(current)
        answers.append(pipeline.run(survey, context))
    return answers


def test_e21_cluster_gate(servers):
    initial, batches = split_for_streaming(
        census_table(n_rows=N_ROWS, seed=SEED), n_batches=2
    )
    fidelity = Fidelity.sketch(budget_rows=BUDGET)
    serial = run_session(initial, batches, AtlasConfig(
        fidelity=fidelity,
        parallelism=Parallelism(workers=1, shards=SHARDS),
        seed=SEED,
    ))
    coordinator = attach_cluster([server.url for server in servers])
    cluster = run_session(initial, batches, AtlasConfig(
        fidelity=fidelity,
        parallelism=Parallelism.cluster(shards=SHARDS),
        seed=SEED,
    ))
    assert len(cluster) == len(serial) == 10
    for a, b in zip(serial, cluster):
        assert map_set_fingerprint(a) == map_set_fingerprint(b)
        assert ranked_map_agreement(a, b, initial, top_k=3) == 1.0
    assert coordinator.metrics()["builds"] == 1
    assert coordinator.metrics()["shard_retries"] == 0
