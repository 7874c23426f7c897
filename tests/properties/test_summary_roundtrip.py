"""Summary documents round-trip bit-identically.

A persisted sketch summary stores its reservoir as row positions in the
table it summarises, and no row of it.
``extract_summary → to_dict → JSON → from_dict → restore_backend``
must hand back the same positions, code bytes, numeric bytes and
labels — across serial and sharded builds and across appends that do
or do not introduce new labels.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig, Fidelity, Parallelism
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.engine.context import ExecutionContext
from repro.store import SketchSummary, extract_summary, restore_backend
from tests.properties.test_store_roundtrip import tables_identical

labels = st.sampled_from(["disk", "net", "cpu", "ram", "ui", None])
fresh_labels = st.sampled_from(["disk", "cpu", "gpu", "fan", "psu"])


def rows(label_strategy, min_size: int, max_size: int):
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.one_of(st.none(), st.floats(0.0, 100.0)),
                min_size=n,
                max_size=n,
            ),
            st.lists(label_strategy, min_size=n, max_size=n),
        )
    )


def columnar(batch) -> dict:
    hours, titles = batch
    return {"hours": hours, "title": titles}


def build(batch) -> Table:
    hours, titles = batch
    return Table(
        [
            NumericColumn(
                "hours", [np.nan if h is None else h for h in hours]
            ),
            CategoricalColumn.from_values("title", titles),
        ],
        name="events",
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    base=rows(labels, 12, 40),
    appends=st.sampled_from([0, 1, 3]).flatmap(
        lambda n: st.lists(
            rows(st.one_of(labels, fresh_labels), 1, 6),
            min_size=n,
            max_size=n,
        )
    ),
    shards=st.sampled_from([1, 4]),
    budget=st.sampled_from([10, 1_000]),
)
def test_summary_round_trips_through_json(base, appends, shards, budget):
    config = AtlasConfig(
        fidelity=Fidelity.parse(f"sketch:{budget}"),
        seed=5,
        parallelism=Parallelism(workers=1, shards=shards),
    )
    table = build(base)
    context = ExecutionContext(table, config)
    backend = context.stats()
    backend.quantile_sketch("hours")
    backend.frequency_sketch("title")
    for batch in appends:
        table = table.append(columnar(batch))
        context.advance(table)
    backend = context.stats()
    assert backend.table is table

    summary = extract_summary(backend, table_name="events", key="k")
    document = json.loads(json.dumps(summary.to_dict()))
    assert set(document["sample"]) == {"size", "bitmap"}
    assert document["n_rows"] == table.n_rows

    again = SketchSummary.from_dict(document)
    np.testing.assert_array_equal(again.state.sample, summary.state.sample)
    assert again.state.sample.dtype == np.int64
    warm = restore_backend(again, table)
    tables_identical(warm.effective_table, backend.effective_table)
    assert (
        warm.effective_table.categorical("title").categories
        is table.categorical("title").categories
    )
    assert warm.quantile_sketch("hours").to_dict() == (
        backend.quantile_sketch("hours").to_dict()
    )
