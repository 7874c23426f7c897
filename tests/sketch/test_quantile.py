"""Unit tests for the Greenwald–Khanna quantile sketch."""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.quantile import GKQuantileSketch


def _rank_error(values: np.ndarray, answer: float, quantile: float) -> float:
    """Absolute rank error of `answer` as a fraction of n."""
    ordered = np.sort(values)
    rank = np.searchsorted(ordered, answer, side="right")
    return abs(rank - quantile * len(values)) / len(values)


class TestValidation:
    def test_bad_epsilon(self):
        with pytest.raises(SketchError):
            GKQuantileSketch(epsilon=0.0)
        with pytest.raises(SketchError):
            GKQuantileSketch(epsilon=1.5)

    def test_query_empty_sketch(self):
        with pytest.raises(SketchError, match="empty"):
            GKQuantileSketch().query(0.5)

    def test_bad_quantile(self):
        sketch = GKQuantileSketch()
        sketch.insert(1.0)
        with pytest.raises(SketchError):
            sketch.query(1.5)

    def test_nan_rejected(self):
        with pytest.raises(SketchError, match="NaN"):
            GKQuantileSketch().insert(float("nan"))


class TestFromDictRejectsImpossibleSummaries:
    def payload(self, tuples):
        return {
            "kind": "gk_quantile",
            "epsilon": 0.1,
            "count": sum(g for _, g, _ in tuples),
            "tuples": tuples,
        }

    def test_nan_value(self):
        with pytest.raises(SketchError, match="NaN"):
            GKQuantileSketch.from_dict(
                self.payload([[1.0, 1, 0], [float("nan"), 2, 0]])
            )

    def test_negative_g(self):
        with pytest.raises(SketchError, match="g must be >= 1"):
            GKQuantileSketch.from_dict(
                self.payload([[1.0, 3, 0], [2.0, -1, 0]])
            )

    def test_zero_g(self):
        with pytest.raises(SketchError, match="g must be >= 1"):
            GKQuantileSketch.from_dict(
                self.payload([[1.0, 2, 0], [2.0, 0, 0]])
            )

    def test_negative_delta(self):
        with pytest.raises(SketchError, match="delta >= 0"):
            GKQuantileSketch.from_dict(
                self.payload([[1.0, 1, 0], [2.0, 2, -5]])
            )


class TestAccuracy:
    @pytest.mark.parametrize("quantile", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_uniform_stream(self, quantile):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1000, 20_000)
        sketch = GKQuantileSketch(epsilon=0.01)
        sketch.extend(values.tolist())
        answer = sketch.query(quantile)
        assert _rank_error(values, answer, quantile) <= 0.011

    def test_sorted_stream(self):
        values = np.arange(10_000, dtype=float)
        sketch = GKQuantileSketch(epsilon=0.01)
        sketch.extend(values.tolist())
        assert _rank_error(values, sketch.median(), 0.5) <= 0.011

    def test_reverse_sorted_stream(self):
        values = np.arange(10_000, dtype=float)[::-1]
        sketch = GKQuantileSketch(epsilon=0.01)
        sketch.extend(values.tolist())
        assert _rank_error(values, sketch.median(), 0.5) <= 0.011

    def test_skewed_stream(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(0, 2, 20_000)
        sketch = GKQuantileSketch(epsilon=0.02)
        sketch.extend(values.tolist())
        for q in (0.25, 0.5, 0.75):
            assert _rank_error(values, sketch.query(q), q) <= 0.025

    def test_tiny_stream_exact_extremes(self):
        sketch = GKQuantileSketch(epsilon=0.1)
        sketch.extend([3.0, 1.0, 2.0])
        assert sketch.query(0.0) == 1.0
        assert sketch.query(1.0) == 3.0


class TestSpace:
    def test_space_is_sublinear(self):
        rng = np.random.default_rng(2)
        sketch = GKQuantileSketch(epsilon=0.01)
        sketch.extend(rng.uniform(0, 1, 50_000).tolist())
        # 50k values but only O((1/eps) log(eps n)) tuples retained.
        assert sketch.space < 2_000
        assert sketch.count == 50_000

    def test_tighter_epsilon_uses_more_space(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, 30_000).tolist()
        loose = GKQuantileSketch(epsilon=0.05)
        tight = GKQuantileSketch(epsilon=0.005)
        loose.extend(values)
        tight.extend(values)
        assert tight.space > loose.space

    def test_summary_tuples_cover_count(self):
        sketch = GKQuantileSketch(epsilon=0.05)
        sketch.extend(range(1000))
        total_g = sum(g for _, g, _ in sketch.merge_summary())
        assert total_g == 1000
