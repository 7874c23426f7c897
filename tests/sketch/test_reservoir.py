"""Unit tests for reservoir sampling."""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch.reservoir import ReservoirSampler


class TestReservoirSampler:
    def test_fills_to_capacity(self):
        sampler = ReservoirSampler(capacity=5, rng=0)
        sampler.extend(range(3))
        assert sorted(sampler.items) == [0, 1, 2]
        sampler.extend(range(3, 100))
        assert len(sampler.items) == 5
        assert sampler.seen == 100

    def test_bad_capacity(self):
        with pytest.raises(SketchError):
            ReservoirSampler(capacity=0)

    def test_uniformity_rough(self):
        # Each of 20 items should appear in roughly 1/4 of samples of size 5.
        hits = np.zeros(20)
        for seed in range(400):
            sampler = ReservoirSampler(capacity=5, rng=seed)
            sampler.extend(range(20))
            for item in sampler.items:
                hits[item] += 1
        expected = 400 * 5 / 20
        assert (np.abs(hits - expected) < expected * 0.5).all()
