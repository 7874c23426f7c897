"""Appends grow into spare capacity: O(delta) per append, old views intact.

A column that ``concat`` builds views the front of a buffer with spare
capacity after its rows.  Its first successor writes the delta into
that tail; any other column (a second successor of the same parent, or
one built by ``take``/``rename``/``with_codes``/a store load) copies.
Every column must still equal the plain ``np.concatenate`` of its
parts, and a parent's arrays must never change under it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.column import (
    MISSING_CODE,
    CategoricalColumn,
    NumericColumn,
    concat_taken,
)
from repro.dataset.table import Table
from repro.store import TableStore


def numeric(values) -> NumericColumn:
    return NumericColumn("x", np.asarray(values, dtype=np.float64))


def labels(values) -> CategoricalColumn:
    return CategoricalColumn.from_values("c", values)


class TestChain:
    def test_successors_write_into_one_buffer(self):
        column = numeric(np.arange(100.0)).concat(numeric([100.0]))
        chain = [column]
        for value in range(101, 121):
            chain.append(chain[-1].concat(numeric([float(value)])))
        # 101 rows get a 126-row buffer: the next 20 appends claim its tail.
        assert all(np.shares_memory(chain[0].data, c.data) for c in chain)
        for column in chain:
            assert np.array_equal(column.data, np.arange(float(len(column))))
            assert not column.data.flags.writeable

    def test_a_full_buffer_copies_into_a_larger_one(self):
        column = numeric(np.arange(8.0)).concat(numeric([8.0, 9.0]))  # 12-row buffer
        full = column.concat(numeric([10.0, 11.0]))
        assert np.shares_memory(column.data, full.data)
        grown = full.concat(numeric([12.0]))
        assert not np.shares_memory(full.data, grown.data)
        assert np.array_equal(grown.data, np.arange(13.0))

    def test_categorical_chain_keeps_codes_and_extends_labels(self):
        head = ["a", "b", None] * 10
        column = labels(head).concat(labels(["b", None]))
        grown = column.concat(labels(["z", "a", None]))
        assert np.shares_memory(column.codes, grown.codes)
        assert grown.categories == ("a", "b", "z")
        assert grown.decode() == head + ["b", None, "z", "a", None]
        assert column.decode() == head + ["b", None]

    def test_an_append_without_new_labels_keeps_the_dictionary(self):
        parent = labels(["a", "b"])
        child = parent.concat(labels(["b", "a", None]))
        assert child.dictionary is parent.dictionary
        grandchild = child.concat(labels(["a"]))
        assert grandchild.dictionary is parent.dictionary


#: A concatenated column of 40 rows: its buffer has room for 10 more.
HEAD = np.arange(40.0)


class TestBranch:
    def test_a_second_successor_copies(self):
        parent = numeric(HEAD[:39]).concat(numeric([39.0]))
        first = parent.concat(numeric([4.0]))
        second = parent.concat(numeric([5.0]))
        assert np.shares_memory(parent.data, first.data)
        assert not np.shares_memory(parent.data, second.data)
        assert first.data.tolist() == HEAD.tolist() + [4.0]
        assert second.data.tolist() == HEAD.tolist() + [5.0]
        # The branch owns a buffer of its own, which it grows into.
        third = second.concat(numeric([6.0]))
        assert np.shares_memory(second.data, third.data)
        assert first.data.tolist() == HEAD.tolist() + [4.0]

    def test_derived_columns_copy_on_their_first_concat(self):
        parent = numeric(HEAD[:39]).concat(numeric([39.0]))
        for derived in (
            parent.rename("y"),
            parent.take(np.arange(40)),
            parent.filter(np.ones(40, dtype=bool)),
        ):
            grown = derived.concat(numeric([9.0]))
            assert not np.shares_memory(parent.data, grown.data)
            assert grown.data.tolist() == HEAD.tolist() + [9.0]
        # None of them claimed the parent's tail.
        assert np.shares_memory(parent.data, parent.concat(numeric([4.0])).data)

    def test_with_codes_copies_on_its_first_concat(self):
        parent = labels(["a", "b"] * 20).concat(labels(["a"]))
        derived = parent.with_codes(parent.codes)
        grown = derived.concat(labels(["b"]))
        assert not np.shares_memory(parent.codes, grown.codes)
        assert grown.decode() == ["a", "b"] * 20 + ["a", "b"]
        assert np.shares_memory(parent.codes, parent.concat(labels(["b"])).codes)

    def test_the_parent_stays_byte_identical(self):
        parent = numeric(np.r_[HEAD[:30], np.nan]).concat(numeric([4.0]))
        codes_parent = labels(["a", None] * 15).concat(labels(["b"]))
        data, codes = parent.data.tobytes(), codes_parent.codes.tobytes()
        for _ in range(3):
            parent.concat(numeric([7.0, 8.0]))
            codes_parent.concat(labels(["c", "a", None]))
        assert parent.data.tobytes() == data and len(parent) == 32
        assert codes_parent.codes.tobytes() == codes and len(codes_parent) == 31
        assert codes_parent.categories == ("a", "b")


class TestStoredColumn:
    def test_first_concat_of_a_loaded_table_copies_then_claims(self, tmp_path):
        table = Table.from_dict(
            {"x": [1.0, 2.0, None], "c": ["a", None, "b"]}, name="t"
        )
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            loaded = store.load_table("t")
        delta = {"x": [4.0], "c": ["z"]}
        first = loaded.append(delta)
        second = first.append(delta)
        assert not np.shares_memory(loaded.numeric("x").data, first.numeric("x").data)
        assert np.shares_memory(first.numeric("x").data, second.numeric("x").data)
        assert np.shares_memory(first.categorical("c").codes, second.categorical("c").codes)
        expected = table.append(delta).append(delta)
        assert np.array_equal(
            second.numeric("x").data, expected.numeric("x").data, equal_nan=True
        )
        assert second.categorical("c").decode() == expected.categorical("c").decode()
        assert loaded.numeric("x").data.tobytes() == table.numeric("x").data.tobytes()
        assert loaded.categorical("c").decode() == ["a", None, "b"]

    def test_replaying_an_append_log_claims_each_tail(self, tmp_path):
        table = Table.from_dict({"x": [1.0, 2.0], "c": ["a", "b"]}, name="t")
        current = table
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            for step in range(4):
                delta = current.coerce_delta({"x": [float(step)], "c": [f"n{step}"]})
                grown = current.append(delta)
                store.append("t", delta, from_version=current.version,
                             to_version=grown.version)
                current = grown
            replayed = store.load_table("t")
        assert replayed.version == current.version == 4
        assert replayed.numeric("x").data.tobytes() == current.numeric("x").data.tobytes()
        assert replayed.categorical("c").codes.tobytes() == current.categorical("c").codes.tobytes()
        assert replayed.categorical("c").categories == current.categorical("c").categories


class TestRacingBranches:
    def test_eight_threads_branching_from_one_parent(self):
        parent = numeric(np.arange(1000.0)).concat(numeric([1000.0]))
        codes_parent = labels(["a", "b"] * 500).concat(labels(["a"]))
        data, codes = parent.data.tobytes(), codes_parent.codes.tobytes()
        results: dict[int, tuple] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(8)

        def branch(worker: int) -> None:
            try:
                start.wait()
                values = np.full(7, float(worker))
                grown = parent.concat(numeric(values)).concat(numeric(values))
                fresh = f"w{worker}"
                grown_codes = codes_parent.concat(labels([fresh, "b", None]))
                results[worker] = (grown, grown_codes, fresh)
            except BaseException as error:  # surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=branch, args=(w,)) for w in range(8)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not errors and len(results) == 8
        claimed = 0
        for worker, (grown, grown_codes, fresh) in results.items():
            expected = np.concatenate([np.arange(1001.0), np.full(14, float(worker))])
            assert np.array_equal(grown.data, expected)
            claimed += np.shares_memory(parent.data, grown.data)
            assert grown_codes.decode() == codes_parent.decode() + [fresh, "b", None]
        assert claimed == 1  # exactly one branch won the parent's tail
        assert parent.data.tobytes() == data and len(parent) == 1001
        assert codes_parent.codes.tobytes() == codes


class TestConcatTaken:
    def test_equals_take_then_concat(self):
        parent = labels(["a", "b", None, "c"])
        child = parent.concat(labels(["d", "a"]))
        keep, rows = np.array([0, 2]), np.array([4, 5])
        column = concat_taken(parent, keep, child, rows)
        assert column.dictionary is child.dictionary
        assert column.decode() == ["a", None, "d", "a"]
        grown = concat_taken(parent.take(np.arange(4)), None, child, rows)
        assert grown.decode() == ["a", "b", None, "c", "d", "a"]


@st.composite
def operations(draw):
    """A base column's values, then appends, each from a chosen earlier
    version (so later ones branch), with new labels and missing values."""
    label = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e", "f"]))
    value = st.one_of(st.just(np.nan), st.floats(-1e6, 1e6))
    base = draw(st.lists(st.tuples(value, label), min_size=0, max_size=12))
    steps = draw(st.lists(
        st.tuples(
            st.integers(0, 1_000),  # which earlier version to append to
            st.lists(st.tuples(value, label), min_size=0, max_size=9),
        ),
        max_size=12,
    ))
    return base, steps


@settings(max_examples=120, deadline=None)
@given(operations())
def test_any_append_and_branch_sequence_equals_concatenate(ops):
    base, steps = ops
    # Each version: its two columns, plus the parts they were made of.
    versions = [(
        numeric([v for v, _ in base]),
        labels([c for _, c in base]),
        [np.asarray([v for v, _ in base], dtype=np.float64)],
        [c for _, c in base],
    )]
    for pick, rows in steps:
        column, categories, parts, decoded = versions[pick % len(versions)]
        values = np.asarray([v for v, _ in rows], dtype=np.float64)
        delta_labels = [c for _, c in rows]
        versions.append((
            column.concat(numeric(values)),
            categories.concat(labels(delta_labels)),
            parts + [values],
            decoded + delta_labels,
        ))
    for column, categories, parts, decoded in versions:
        assert np.array_equal(column.data, np.concatenate(parts), equal_nan=True)
        assert not column.data.flags.writeable
        assert not categories.codes.flags.writeable
        assert categories.decode() == decoded
        assert categories.n_categories == len(categories.categories)
        assert (categories.codes >= MISSING_CODE).all()
        assert (categories.codes < categories.n_categories).all()
        # Labels keep first-occurrence order along the version's rows.
        seen = list(dict.fromkeys(label for label in decoded if label is not None))
        assert list(categories.categories) == seen
