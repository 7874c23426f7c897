"""The one uniform-merge rule: ``advance``'s top-up is the shard fold's
row-sample merge.

For any split of a census table into an initial prefix and 1–4 append
batches, at budgets below and above the table size, a serially built
:class:`SketchBackend` maintained by ``advance`` holds exactly the rows
``merge_row_samples`` picks when it merges the tracked reservoir row
indices with each delta's row indices on a twin generator.  After each
append both generators are in the same state: the top-up draws come
first, then (only when the summaries were built from a thinned
reservoir) the one ``random(delta_n)`` draw that rate-matches the
delta.  A change to the sampling rule must change both sides at once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Fidelity
from repro.datagen import census_table
from repro.dataset.column import NumericColumn
from repro.engine.backends import SketchBackend
from repro.sketch.state import merge_row_samples

TABLE = census_table(n_rows=1200, seed=11)


def assert_same_rows(actual, expected):
    assert actual.n_rows == expected.n_rows
    for name in expected.column_names:
        got, want = actual.column(name), expected.column(name)
        if isinstance(want, NumericColumn):
            np.testing.assert_array_equal(got.data, want.data)
        else:
            np.testing.assert_array_equal(got.codes, want.codes)
            assert got.categories == want.categories


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=TABLE.n_rows - 1),
        min_size=1, max_size=4, unique=True,
    ),
    budget=st.integers(min_value=50, max_value=2 * TABLE.n_rows),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_advance_tops_up_by_the_fold_rule(cuts, budget, seed):
    bounds = sorted(cuts) + [TABLE.n_rows]
    current = TABLE.take(np.arange(bounds[0]), name="census")
    backend = SketchBackend(
        current, Fidelity.sketch(budget_rows=budget), rng=seed
    )
    backend.quantile_sketch("Age")  # a built summary to maintain
    if budget >= current.n_rows:
        rows = np.arange(current.n_rows)
    else:
        rows = np.sort(
            np.random.default_rng(seed).permutation(current.n_rows)[:budget]
        )
    for step, (low, high) in enumerate(zip(bounds, bounds[1:])):
        grown = current.append(TABLE.take(np.arange(low, high)))
        ours = np.random.default_rng([seed, step])
        twin = np.random.default_rng([seed, step])
        backend = backend.advance(grown, rng=ours)
        if budget >= grown.n_rows:
            rows = np.arange(grown.n_rows)
        else:
            rate = len(rows) / low
            rows, seen = merge_row_samples(
                rows, low, np.arange(low, high), high - low, budget, twin
            )
            assert seen == high
            if rate < 1.0:
                twin.random(high - low)
        assert_same_rows(backend.effective_table, grown.take(np.sort(rows)))
        assert ours.bit_generator.state == twin.bit_generator.state
        current = grown
