"""Unit tests for typed columns."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.dataset.column import (
    MISSING_CODE,
    CategoricalColumn,
    NumericColumn,
    column_from_values,
)
from repro.dataset.types import ColumnKind, ColumnRole
from repro.errors import DatasetError


class TestNumericColumn:
    def test_basic_construction(self):
        col = NumericColumn("x", [1, 2, 3])
        assert len(col) == 3
        assert col.kind is ColumnKind.NUMERIC
        assert col.name == "x"

    def test_data_is_readonly(self):
        col = NumericColumn("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            col.data[0] = 99.0

    def test_rejects_2d_input(self):
        with pytest.raises(DatasetError, match="1-D"):
            NumericColumn("x", np.zeros((2, 2)))

    def test_rejects_empty_name(self):
        with pytest.raises(DatasetError):
            NumericColumn("", [1.0])

    def test_missing_is_nan(self):
        col = NumericColumn("x", [1.0, np.nan, 3.0])
        assert col.missing_count() == 1
        assert col.missing_mask().tolist() == [False, True, False]

    def test_statistics_ignore_nan(self):
        col = NumericColumn("x", [1.0, np.nan, 3.0])
        assert col.min() == 1.0
        assert col.max() == 3.0
        assert col.mean() == 2.0
        assert col.median() == 2.0

    def test_statistics_on_all_missing(self):
        col = NumericColumn("x", [np.nan, np.nan])
        assert np.isnan(col.min())
        assert np.isnan(col.mean())
        assert col.distinct_count() == 0

    def test_take_and_filter(self):
        col = NumericColumn("x", [10.0, 20.0, 30.0])
        assert col.take(np.array([2, 0])).data.tolist() == [30.0, 10.0]
        assert col.filter(np.array([True, False, True])).data.tolist() == [
            10.0,
            30.0,
        ]

    def test_rename_shares_storage(self):
        col = NumericColumn("x", [1.0])
        renamed = col.rename("y")
        assert renamed.name == "y"
        assert renamed.data is col.data

    def test_distinct_count(self):
        col = NumericColumn("x", [1.0, 1.0, 2.0, np.nan])
        assert col.distinct_count() == 2


class TestCategoricalColumn:
    def test_from_values(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "a"])
        assert col.kind is ColumnKind.CATEGORICAL
        assert col.categories == ("a", "b")
        assert col.codes.tolist() == [0, 1, 0]

    def test_missing_values(self):
        col = CategoricalColumn.from_values("c", ["a", None, ""])
        assert col.missing_count() == 2
        assert col.codes.tolist() == [0, MISSING_CODE, MISSING_CODE]

    def test_decode_roundtrip(self):
        values = ["x", None, "y", "x"]
        col = CategoricalColumn.from_values("c", values)
        assert col.decode() == values

    def test_value_counts(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "a", None])
        assert col.value_counts() == {"a": 2, "b": 1}

    def test_duplicate_categories_rejected(self):
        with pytest.raises(DatasetError, match="duplicate"):
            CategoricalColumn("c", np.array([0, 1]), ["a", "a"])

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(DatasetError, match="out-of-range"):
            CategoricalColumn("c", np.array([0, 5]), ["a", "b"])

    def test_take_preserves_categories(self):
        col = CategoricalColumn.from_values("c", ["a", "b", "c"])
        taken = col.take(np.array([2]))
        assert taken.categories == ("a", "b", "c")
        assert taken.decode() == ["c"]

    def test_distinct_counts_only_present(self):
        col = CategoricalColumn.from_values("c", ["a", "a", None])
        assert col.distinct_count() == 1

    def test_codes_readonly(self):
        col = CategoricalColumn.from_values("c", ["a"])
        with pytest.raises(ValueError):
            col.codes[0] = 0


class TestRoleClassification:
    def test_low_cardinality_is_dimension(self):
        col = CategoricalColumn.from_values("c", ["a", "b"] * 50)
        assert col.role() is ColumnRole.DIMENSION

    def test_unique_numeric_is_key(self):
        col = NumericColumn("id", np.arange(100, dtype=float))
        assert col.role() is ColumnRole.KEY

    def test_unique_labels_are_key(self):
        col = CategoricalColumn.from_values(
            "name", [f"user-{i}" for i in range(200)]
        )
        assert col.role() is ColumnRole.KEY

    def test_small_distinct_numeric_is_dimension(self):
        col = NumericColumn("x", [1.0, 2.0, 3.0] * 30)
        assert col.role() is ColumnRole.DIMENSION

    def test_empty_column_is_dimension(self):
        col = NumericColumn("x", [])
        assert col.role() is ColumnRole.DIMENSION

    def test_high_cardinality_repeating_labels_are_text(self):
        # 1500 distinct labels, each appearing 3 times: not a key
        # (ratio 1/3) but clearly free text.
        labels = [f"comment-{i}" for i in range(1500)] * 3
        col = CategoricalColumn.from_values("comment", labels)
        assert col.role() is ColumnRole.TEXT


class TestRoleCache:
    def test_verdict_computed_once_per_column(self, monkeypatch):
        col = NumericColumn("id", np.arange(100, dtype=float))
        calls = []
        original = NumericColumn.distinct_count

        def counting(self):
            calls.append(self.name)
            return original(self)

        monkeypatch.setattr(NumericColumn, "distinct_count", counting)
        assert col.role() is ColumnRole.KEY
        assert col.role() is ColumnRole.KEY
        assert len(calls) == 1

    def test_derived_columns_judge_their_own_rows(self):
        col = CategoricalColumn.from_values(
            "name", [f"user-{i}" for i in range(200)]
        )
        assert col.role() is ColumnRole.KEY
        # Twenty rows of two labels: the same dictionary, another verdict.
        few = col.take(np.array([0, 1] * 10))
        assert few.role() is ColumnRole.DIMENSION
        assert col.rename("other").role() is ColumnRole.KEY


class TestColumnFromValues:
    def test_numbers_become_numeric(self):
        col = column_from_values("x", [1, 2.5, None])
        assert isinstance(col, NumericColumn)
        assert np.isnan(col.data[2])

    def test_strings_become_categorical(self):
        col = column_from_values("x", ["a", "b"])
        assert isinstance(col, CategoricalColumn)

    def test_mixed_becomes_categorical(self):
        col = column_from_values("x", [1, "a"])
        assert isinstance(col, CategoricalColumn)

    def test_bools_are_categorical(self):
        col = column_from_values("x", [True, False])
        assert isinstance(col, CategoricalColumn)


class TestInheritedDictionary:
    """Derived columns share the parent's dictionary instead of
    re-validating it: the cost of a derivation is O(rows)."""

    @pytest.fixture
    def col(self):
        return CategoricalColumn.from_values("c", ["a", "b", None, "c", "a"])

    def test_take_shares_categories(self, col):
        taken = col.take(np.array([4, 2, 0]))
        assert taken.categories is col.categories
        assert taken.name == "c"
        assert taken.decode() == ["a", None, "a"]

    def test_filter_shares_categories(self, col):
        kept = col.filter(np.array([True, False, True, True, False]))
        assert kept.categories is col.categories
        assert kept.decode() == ["a", None, "c"]

    def test_concat_without_new_labels_shares_categories(self, col):
        delta = CategoricalColumn.from_values("c", ["c", None, "a"])
        both = col.concat(delta)
        assert both.categories is col.categories
        assert both.decode() == col.decode() + ["c", None, "a"]

    def test_concat_with_new_labels_extends_in_order(self, col):
        both = col.concat(CategoricalColumn.from_values("c", ["z", "a"]))
        assert both.categories == ("a", "b", "c", "z")
        assert both.decode()[-2:] == ["z", "a"]

    def test_derived_codes_are_fresh_and_readonly(self, col):
        taken = col.take(np.arange(len(col)))
        assert not np.shares_memory(taken.codes, col.codes)
        with pytest.raises(ValueError):
            taken.codes[0] = 1

    def test_with_codes_still_checks_the_range(self, col):
        with pytest.raises(DatasetError, match="out-of-range"):
            col.with_codes(np.array([0, 3], dtype=np.int32))
        with pytest.raises(DatasetError, match="out-of-range"):
            col.with_codes(np.array([-2], dtype=np.int32))
        with pytest.raises(DatasetError, match="1-D"):
            col.with_codes(np.zeros((2, 2), dtype=np.int32))

    def test_constructor_coerces_labels_to_str(self):
        col = CategoricalColumn("c", np.array([0, 1], dtype=np.int32), [1, 2])
        assert col.categories == ("1", "2")
        with pytest.raises(DatasetError, match="duplicate"):
            CategoricalColumn("c", np.array([0], dtype=np.int32), [1, "1"])


class TestDeferredDictionary:
    """A deferred column knows its dictionary's size up front and
    decodes the labels once, on first use, shared by every derivative."""

    LABELS = ("a", "b", "c")

    def deferred(self, decode=None):
        calls = []

        def count_calls():
            calls.append(1)
            return (decode or (lambda: self.LABELS))()

        codes = np.array([0, 2, -1, 1, 0], dtype=np.int32)
        return CategoricalColumn.deferred("c", codes, 3, count_calls), calls

    def test_codes_and_size_need_no_decode(self):
        col, calls = self.deferred()
        assert col.n_categories == 3
        assert col.distinct_count() == 3
        assert col.missing_count() == 1
        derived = [
            col.take(np.array([1, 0])),
            col.filter(np.array([True, True, False, False, True])),
            col.rename("d"),
            col.with_codes(np.array([2], dtype=np.int32)),
        ]
        assert calls == []
        assert col.categories == self.LABELS
        assert all(d.categories is col.categories for d in derived)
        assert calls == [1]

    def test_codes_past_the_size_fail_at_construction(self):
        with pytest.raises(DatasetError, match="out-of-range"):
            CategoricalColumn.deferred(
                "c", np.array([3], dtype=np.int32), 3, lambda: self.LABELS
            )

    def test_eight_threads_get_one_tuple_decoded_once(self):
        gate = threading.Barrier(8)

        def slow():
            time.sleep(0.05)  # every reader arrives while the decode runs
            return tuple(["a", "b", "c"])

        col, calls = self.deferred(slow)
        derived = col.take(np.arange(len(col)))

        def read(index):
            gate.wait()
            return (col if index % 2 else derived).categories

        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(read, range(8)))
        assert calls == [1]
        assert all(labels is seen[0] for labels in seen)
        assert seen[0] == self.LABELS

    def test_a_failed_decode_fails_on_every_use(self):
        def corrupt():
            raise DatasetError("corrupt dictionary")

        col, calls = self.deferred(corrupt)
        for _ in range(2):
            with pytest.raises(DatasetError, match="corrupt"):
                col.categories
        assert calls == [1, 1]
        with pytest.raises(DatasetError, match="corrupt"):
            col.decode()
