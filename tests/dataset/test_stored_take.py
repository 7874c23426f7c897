"""A stored column's ``take`` gathers its rows on first read.

``NumericColumn.stored`` / ``CategoricalColumn.stored`` load their
buffer on first read; a ``take`` of one knows its length up front,
shares the dictionary by identity, and reads the parent's buffer
(through the parent's own holder) only when something reads its rows.
It then equals the eager take of the loaded column, byte for byte.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.column import (
    MISSING_CODE,
    CategoricalColumn,
    LabelDictionary,
    NumericColumn,
)
from repro.datagen import support_tickets_table
from repro.store import TableStore
from repro.store import store as store_module


def readonly(array: np.ndarray) -> np.ndarray:
    array = np.array(array)
    array.setflags(write=False)
    return array


class CountingLoader:
    """A stored buffer's loader that counts its calls."""

    def __init__(self, array: np.ndarray) -> None:
        self.array, self.calls = readonly(array), 0

    def __call__(self) -> np.ndarray:
        self.calls += 1
        return self.array


LABELS = ("a", "b", "c", "d")


def stored_numeric(values) -> tuple[NumericColumn, CountingLoader]:
    load = CountingLoader(np.asarray(values, dtype=np.float64))
    return NumericColumn.stored("x", len(load.array), load), load


def stored_categorical(codes) -> tuple[CategoricalColumn, CountingLoader]:
    load = CountingLoader(np.asarray(codes, dtype=np.int32))
    dictionary = LabelDictionary(len(LABELS), LABELS)
    return CategoricalColumn.stored("k", len(load.array), load, dictionary), load


def assert_same_take(taken, eager) -> None:
    """Equal bytes, dtype, read-only flag, length and role."""
    taken_array = taken.data if isinstance(taken, NumericColumn) else taken.codes
    eager_array = eager.data if isinstance(eager, NumericColumn) else eager.codes
    assert type(taken_array) is np.ndarray
    assert taken_array.dtype == eager_array.dtype
    assert taken_array.tobytes() == eager_array.tobytes()
    assert not taken_array.flags.writeable
    assert len(taken) == len(eager) == len(taken_array)
    assert taken.role() == eager.role()
    assert taken.name == eager.name


@st.composite
def columns_and_indices(draw, values):
    """A column's values and indices into it: repeated, unsorted and
    negative ones, none at all, or the empty column."""
    data = draw(st.lists(values, max_size=40))
    n = len(data)
    indices = draw(st.lists(st.integers(-n, n - 1), max_size=60)) if n else []
    dtype = draw(st.sampled_from([np.int64, np.int32, np.intp]))
    return data, np.array(indices, dtype=dtype)


NUMBERS = st.one_of(
    st.just(float("nan")),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
CODES = st.integers(MISSING_CODE, len(LABELS) - 1)


class TestEqualToAnEagerTake:
    @settings(max_examples=200, deadline=None)
    @given(columns_and_indices(NUMBERS))
    def test_numeric(self, drawn):
        values, indices = drawn
        column, load = stored_numeric(values)
        taken = column.take(indices)
        assert load.calls == 0 and len(taken) == len(indices)
        assert_same_take(taken, NumericColumn("x", values).take(indices))

    @settings(max_examples=200, deadline=None)
    @given(columns_and_indices(CODES))
    def test_categorical(self, drawn):
        codes, indices = drawn
        column, load = stored_categorical(codes)
        taken = column.take(indices)
        assert load.calls == 0 and len(taken) == len(indices)
        assert taken.dictionary is column.dictionary
        assert taken.n_categories == len(LABELS)
        eager = CategoricalColumn("k", np.asarray(codes, dtype=np.int32), LABELS)
        assert_same_take(taken, eager.take(indices))
        assert taken.decode() == eager.take(indices).decode()

    def test_a_take_of_a_take(self):
        column, load = stored_categorical([0, 1, 2, 3, -1, 2])
        taken = column.take(np.array([5, 4, 3, 1])).take(np.array([3, 0, 0]))
        assert load.calls == 0 and len(taken) == 3
        assert taken.dictionary is column.dictionary
        assert taken.codes.tolist() == [1, 2, 2]

    @pytest.mark.parametrize(
        "indices",
        [np.array([0, 3]), np.array([-4]), np.array([0.0]), np.array([]), np.array([[0]])],
    )
    def test_bad_indices_fail_at_the_take_as_before(self, indices):
        column, _ = stored_numeric([1.0, 2.0, 3.0])
        eager = NumericColumn("x", [1.0, 2.0, 3.0])
        with pytest.raises(Exception) as expected:
            eager.take(indices)
        with pytest.raises(expected.type):
            column.take(indices)

    def test_the_taken_rows_are_fixed_at_the_take(self):
        column, _ = stored_numeric([10.0, 20.0, 30.0])
        indices = np.array([0, 1])
        taken = column.take(indices)
        indices[:] = 2  # the caller reuses its array
        assert taken.data.tolist() == [10.0, 20.0]


class TestNoEarlyFetch:
    def test_a_take_fetches_nothing_before_its_first_read(self):
        column, load = stored_numeric([1.0, 2.0, 3.0, 4.0])
        first = column.take(np.array([3, 1]))
        second = column.take(np.array([0]))
        assert load.calls == 0
        assert first.data.tolist() == [4.0, 2.0]
        assert load.calls == 1
        assert second.data.tolist() == [1.0] and column.data.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert load.calls == 1  # one parent buffer, loaded once

    def test_a_failed_read_fails_again(self):
        calls = []

        def broken():
            calls.append(1)
            raise RuntimeError("cannot read")

        taken = NumericColumn.stored("x", 3, broken).take(np.array([0, 2]))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="cannot read"):
                taken.data
        assert len(calls) == 2

    def test_a_column_built_from_values_takes_eagerly(self):
        taken = NumericColumn("x", [1.0, 2.0]).take(np.array([1]))
        assert type(taken) is NumericColumn


class TestOneLoadUnderContention:
    def test_eight_threads_race_on_the_first_read(self):
        column, load = stored_categorical(np.arange(400) % len(LABELS))
        takes = [column.take(np.arange(399, -1, -2)), column.take(np.arange(0, 400, 3))]
        gate = threading.Barrier(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def read(index):
                gate.wait(timeout=10)
                return takes[index % 2].codes

            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(read, range(8), timeout=30))
        finally:
            sys.setswitchinterval(interval)
        assert load.calls == 1
        for index, array in enumerate(seen):
            assert array is seen[index % 2]
        assert seen[0].tolist() == (np.arange(399, -1, -2) % 4).tolist()
        assert seen[1].tolist() == (np.arange(0, 400, 3) % 4).tolist()


class TestLifetime:
    """A take of a loaded table stays readable, with its rows, whatever
    the store does before its first read."""

    ROWS = np.array([7, 3, 3, 0, 499])

    @pytest.fixture
    def selects(self, monkeypatch):
        """Every buffer the store fetches from now on."""
        seen: list[str] = []
        real = store_module.TableStore._select_locked

        def spy(self, buffer):
            seen.append(buffer.where)
            return real(self, buffer)

        monkeypatch.setattr(store_module.TableStore, "_select_locked", spy)
        return seen

    def taken(self, store, table, selects):
        """``table`` loaded back and taken at ``ROWS``, fetching nothing."""
        taken = store.load_table(table.name).take(self.ROWS)
        assert selects == []
        return taken

    def assert_rows(self, taken, table):
        for column in table.columns:
            expected = column.take(self.ROWS)
            assert_same_take(taken.column(column.name), expected)
            if isinstance(expected, CategoricalColumn):
                assert taken.categorical(column.name).decode() == expected.decode()

    def test_after_overwrite(self, tmp_path, selects):
        table = support_tickets_table(n_rows=500, seed=3)
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            taken = self.taken(store, table, selects)
            store.register_table(support_tickets_table(n_rows=40, seed=9), overwrite=True)
            self.assert_rows(taken, table)

    def test_after_close(self, tmp_path, selects):
        table = support_tickets_table(n_rows=500, seed=3)
        with TableStore(str(tmp_path / "atlas.db")) as store:
            store.register_table(table)
            taken = self.taken(store, table, selects)
        self.assert_rows(taken, table)

    def test_memory_store_after_close(self, selects):
        table = support_tickets_table(n_rows=500, seed=3)
        store = TableStore()
        store.register_table(table)
        taken = self.taken(store, table, selects)
        store.close()
        self.assert_rows(taken, table)


def pending_positions(column) -> np.ndarray:
    """The row positions an unread stored take will gather."""
    cells = column._buffer._load.__closure__
    return next(c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray))


class TestOnePositionsCopy:
    def test_the_columns_of_one_stored_take_share_its_positions(self):
        table = support_tickets_table(n_rows=500, seed=3)
        store = TableStore()
        store.register_table(table)
        rows = np.array([7, 3, 3, 0, 499])
        taken = store.load_table(table.name).take(rows)
        store.close()
        positions = [pending_positions(column) for column in taken.columns]
        assert len(positions) == len(table.columns) > 1
        assert all(np.shares_memory(positions[0], other) for other in positions[1:])
        assert not positions[0].flags.writeable
        assert not np.shares_memory(positions[0], rows)  # the caller keeps its own
        rows[:] = 0
        assert taken.numeric("hours_open").data.tolist() == (
            table.numeric("hours_open").data[[7, 3, 3, 0, 499]].tolist()
        )
