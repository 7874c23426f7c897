"""Summary documents round-trip bit-identically, whichever form they take.

A persisted sketch summary stores its reservoir's codes and borrows
the label dictionaries from the table it summarises; a column whose
dictionary is *not* the table's keeps it inline.  Either way
``extract_summary → to_dict → JSON → from_dict → restore_backend``
must hand back the same code bytes, the same numeric bytes, and the
same labels — across serial and sharded builds and across appends
that do or do not introduce new labels.
"""

from __future__ import annotations

import dataclasses
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
    (entry,) = [
        c for c in document["sample"]["columns"] if c["name"] == "title"
    ]
    assert entry["dictionary"] == "table" and entry["aux"] is None

    warm = restore_backend(SketchSummary.from_dict(document), table)
    tables_identical(warm.effective_table, backend.effective_table)
    assert (
        warm.effective_table.categorical("title").categories
        is table.categorical("title").categories
    )
    assert warm.quantile_sketch("hours").to_dict() == (
        backend.quantile_sketch("hours").to_dict()
    )


@settings(max_examples=25, deadline=None)
@given(base=rows(labels, 12, 40), extra=st.lists(fresh_labels, max_size=3))
def test_foreign_dictionary_falls_back_to_inline(base, extra):
    """A reservoir column whose labels are not the table's keeps them."""
    table = build(base)
    config = AtlasConfig(fidelity=Fidelity.parse("sketch:10"), seed=5)
    captured = extract_summary(
        ExecutionContext(table, config).stats(), table_name="events", key="k"
    )
    title = captured.sample.categorical("title")
    foreign = CategoricalColumn(
        "title",
        title.codes,
        title.categories + tuple(f"{label}*" for label in dict.fromkeys(extra))
        + ("never seen",),
    )
    sample = Table(
        [captured.sample.column("hours"), foreign], name=captured.sample.name
    )
    summary = SketchSummary(
        table_name="events",
        key="k",
        fidelity=captured.fidelity,
        state=dataclasses.replace(
            captured.state,
            sample=sample,
            quantiles={},
            frequencies={},
            tokens={},
        ),
        base=table,
    )
    document = json.loads(json.dumps(summary.to_dict()))
    (entry,) = [
        c for c in document["sample"]["columns"] if c["name"] == "title"
    ]
    assert "dictionary" not in entry
    assert json.loads(entry["aux"]) == list(foreign.categories)
    again = SketchSummary.from_dict(document)
    tables_identical(again.sample, sample)
    warm = restore_backend(again, table)
    tables_identical(warm.effective_table, sample)
