"""E20's behavioural gate: the worker count never changes an answer.

A cold interactive session over one shard layout answers bit for bit
the same whether one thread or a pool of scan threads built its
statistics.  The session is the E20 smoke session: cold build, root,
the survey query, and the two first regions of each of the survey's
top-3 maps.  E20's old wall-clock speed-up floor is retired; only the
behaviour is checked here.
"""

from __future__ import annotations

import pytest

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.evaluation.metrics import map_set_fingerprint, ranked_map_agreement
from repro.evaluation.workloads import figure2_query

#: The E20 smoke scale.
N_ROWS, BUDGET, SHARDS, SEED = 200_000, 10_000, 8, 0


def run_session(table, workers: int) -> list:
    config = AtlasConfig(
        fidelity=Fidelity.sketch(budget_rows=BUDGET),
        parallelism=Parallelism(workers=workers, shards=SHARDS),
        seed=SEED,
    )
    pipeline = Pipeline.default()
    context = ExecutionContext(table, config)
    answers = [pipeline.run(None, context), pipeline.run(figure2_query(), context)]
    for entry in answers[1].ranked[:3]:
        answers.extend(
            pipeline.run(region, context) for region in entry.map.regions[:2]
        )
    return answers


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=N_ROWS, seed=SEED)


@pytest.fixture(scope="module")
def inline(table):
    return run_session(table, workers=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_e20_worker_count_gate(table, inline, workers):
    threaded = run_session(table, workers)
    assert len(threaded) == len(inline) == 8
    for a, b in zip(inline, threaded):
        assert map_set_fingerprint(a) == map_set_fingerprint(b)
        assert ranked_map_agreement(a, b, table, top_k=3) == 1.0
