"""Determinism of sharded parallel execution.

The contract the scan/merge split must keep: the worker count is a pure
wall-clock knob.  Serial (one worker), 2-worker, and 4-worker runs over
the same shard layout produce bit-identical :class:`MapSet` answers —
equal :func:`map_set_fingerprint` hashes — at every fidelity, for every
query, and across streaming appends.  Shard RNG streams are keyed by
shard index and merges fold in shard order, so nothing observable
depends on which thread scanned which shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.datagen import census_table
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import Pipeline
from repro.evaluation.metrics import map_set_fingerprint
from repro.query.parser import parse_query

#: Worker counts under test; all share one fixed shard layout, so the
#: answers must be bit-identical.
WORKER_COUNTS = (1, 2, 4)
SHARDS = 4
ROWS = 4_000

QUERIES = (None, "Age: [17, 40]", "Sex: {'Female'}")


@pytest.fixture(scope="module")
def table():
    return census_table(n_rows=ROWS, seed=0)


def _answers(table, fidelity, workers, queries, append=None):
    config = AtlasConfig(
        fidelity=fidelity,
        parallelism=Parallelism(workers=workers, shards=SHARDS),
        seed=0,
    )
    context = ExecutionContext(table, config)
    pipeline = Pipeline.default()
    parsed = [
        parse_query(q) if isinstance(q, str) else q for q in queries
    ]
    fingerprints = [
        map_set_fingerprint(pipeline.run(q, context)) for q in parsed
    ]
    if append is not None:
        context.advance(table.append(append))
        fingerprints += [
            map_set_fingerprint(pipeline.run(q, context)) for q in parsed
        ]
    return fingerprints


def _append_rows(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "Age": rng.integers(17, 90, n).astype(float).tolist(),
        "Sex": rng.choice(["Female", "Male"], n).tolist(),
        "Salary": rng.choice(["<50k", ">50k"], n).tolist(),
        "Education": rng.choice(["BSc", "MSc"], n).tolist(),
        "Eye color": rng.choice(["Blue", "Green", "Brown"], n).tolist(),
    }


@pytest.mark.parametrize(
    "fidelity",
    [Fidelity.sketch(budget_rows=1_500), Fidelity.exact()],
    ids=["sketch", "exact"],
)
def test_worker_count_never_changes_answers(table, fidelity):
    """Serial, 2-worker, and 4-worker runs are bit-identical."""
    per_worker = [
        _answers(table, fidelity, workers, QUERIES)
        for workers in WORKER_COUNTS
    ]
    assert per_worker[0] == per_worker[1] == per_worker[2]


@pytest.mark.parametrize(
    "fidelity",
    [Fidelity.sketch(budget_rows=1_500), Fidelity.exact()],
    ids=["sketch", "exact"],
)
def test_worker_count_never_changes_answers_after_append(table, fidelity):
    """The guarantee survives streaming maintenance."""
    append = _append_rows(200, seed=99)
    per_worker = [
        _answers(table, fidelity, workers, QUERIES, append=append)
        for workers in WORKER_COUNTS
    ]
    assert per_worker[0] == per_worker[1] == per_worker[2]


@settings(max_examples=8, deadline=None)
@given(
    budget=st.integers(min_value=200, max_value=3_000),
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.integers(min_value=2, max_value=6),
)
def test_sharded_build_is_worker_count_invariant(budget, seed, shards):
    """Property: for any (budget, seed, shard count), a 2-thread build
    equals the calling-thread build bit for bit."""
    table = census_table(n_rows=2_000, seed=1)
    fidelity = Fidelity.sketch(budget_rows=budget)
    fingerprints = []
    for workers in (1, 2):
        config = AtlasConfig(
            fidelity=fidelity,
            parallelism=Parallelism(workers=workers, shards=shards),
            seed=seed,
        )
        context = ExecutionContext(table, config)
        fingerprints.append(
            map_set_fingerprint(Pipeline.default().run(None, context))
        )
    assert fingerprints[0] == fingerprints[1]


def test_fingerprint_distinguishes_different_answers(table):
    """Sanity: the fingerprint is not a constant — different fidelities
    (different effective rows) hash differently."""
    sketch = _answers(table, Fidelity.sketch(budget_rows=1_500), 1, (None,))
    exact = _answers(table, Fidelity.exact(), 1, (None,))
    assert sketch != exact
