"""Differential properties: the numpy kernels vs a pure-Python oracle.

The kernel layer's load-bearing promise (DESIGN decision 9) is that
the sketch contents depend only on the value multiset: the canonical
GK and Misra–Gries builds are defined on the data, not on the code
that computes them.  The oracle below is the straightforward build —
a sorted comprehension and a ``Counter`` — and Hypothesis drives it
and the numpy kernels with the same inputs (NaN mixed in, degenerate
shapes included), comparing full serialized forms, not summaries of
them.
"""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import (
    frequency_summary_from_codes,
    quantile_summary,
    sorted_clean_values,
)
from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch


def oracle_sorted_clean_values(values) -> list[float]:
    """The column's non-NaN values, ascending, by plain comprehension."""
    return sorted(
        value for value in (float(v) for v in values) if not math.isnan(value)
    )


def oracle_quantile_summary(values, epsilon: float) -> GKQuantileSketch:
    """The canonical GK summary built from the oracle's sorted values."""
    return GKQuantileSketch.from_sorted(
        oracle_sorted_clean_values(values), epsilon=epsilon
    )


def oracle_frequency_summary_from_codes(
    codes, categories, capacity: int
) -> MisraGriesSketch:
    """The Misra–Gries summary of decoded labels counted by ``Counter``."""
    sketch = MisraGriesSketch(capacity=capacity)
    sketch.extend_counts(
        Counter(categories[code] for code in codes if code >= 0)
    )
    return sketch


values_with_nan = st.lists(
    st.one_of(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.just(float("nan")),
    ),
    min_size=0,
    max_size=500,
)
epsilons = st.sampled_from([0.005, 0.01, 0.05, 0.2])
CATEGORIES = ["alpha", "beta", "gamma", "delta", "epsilon"]
code_blocks = st.lists(
    st.integers(-1, len(CATEGORIES) - 1), min_size=0, max_size=500
)


class TestSortCleanDifferential:
    @given(values=values_with_nan)
    @settings(max_examples=80, deadline=None)
    def test_same_clean_values_same_order(self, values):
        by_numpy = sorted_clean_values(values)
        by_python = oracle_sorted_clean_values(values)
        assert [float(v) for v in by_numpy] == by_python

    @given(values=values_with_nan)
    @settings(max_examples=40, deadline=None)
    def test_missing_mask_agrees(self, values):
        # The NaN count the fused kernel folds the mask into.
        by_numpy = sorted_clean_values(values)
        expected = sum(1 for v in values if not np.isnan(v))
        assert len(by_numpy) == expected


class TestQuantileDifferential:
    @given(values=values_with_nan, epsilon=epsilons)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_summaries(self, values, epsilon):
        by_numpy = quantile_summary(values, epsilon)
        by_python = oracle_quantile_summary(values, epsilon)
        assert by_numpy.to_dict() == by_python.to_dict()

    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=2, max_size=300),
           epsilon=epsilons)
    @settings(max_examples=40, deadline=None)
    def test_merged_shard_summaries_identical(self, values, epsilon):
        # Shard the stream, build per-shard, merge — kernel and oracle
        # must agree tuple-for-tuple after the merge too (the parallel
        # and cluster fold path).
        half = len(values) // 2
        merged = {}
        for name, build in (
            ("numpy", quantile_summary), ("python", oracle_quantile_summary)
        ):
            left = build(values[:half], epsilon)
            right = build(values[half:], epsilon)
            merged[name] = left.merge(right).to_dict()
        assert merged["numpy"] == merged["python"]


class TestFrequencyDifferential:
    @given(codes=code_blocks, capacity=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_counters(self, codes, capacity):
        by_numpy = frequency_summary_from_codes(codes, CATEGORIES, capacity)
        by_python = oracle_frequency_summary_from_codes(
            codes, CATEGORIES, capacity
        )
        assert by_numpy.to_dict() == by_python.to_dict()

    @given(codes=code_blocks, capacity=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_codes_and_labels_paths_content_identical(self, codes, capacity):
        # Label counts are representation-independent: the code-buffer
        # kernel builds the same summary as a batch extend over the
        # decoded labels (missing dropped, row order).
        from_codes = frequency_summary_from_codes(codes, CATEGORIES, capacity)
        from_labels = MisraGriesSketch(capacity=capacity)
        from_labels.extend(CATEGORIES[code] for code in codes if code >= 0)
        assert from_codes.to_dict() == from_labels.to_dict()

    @given(codes=code_blocks, capacity=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_merged_shard_counters_identical(self, codes, capacity):
        half = len(codes) // 2
        merged = {}
        for name, build in (
            ("numpy", frequency_summary_from_codes),
            ("python", oracle_frequency_summary_from_codes),
        ):
            left = build(codes[:half], CATEGORIES, capacity)
            right = build(codes[half:], CATEGORIES, capacity)
            merged[name] = left.merge(right).to_dict()
        assert merged["numpy"] == merged["python"]
