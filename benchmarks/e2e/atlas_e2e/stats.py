"""Percentile, block and spread maths for latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated.

    Same definition as ``numpy.percentile``'s default, written out so
    the self-test can pin it on hand-built inputs.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def block_medians(samples: Sequence[float], n_blocks: int = 5) -> list[float]:
    """Medians of ``n_blocks`` consecutive, near-equal slices.

    Samples are in completion order, so a trend across the blocks is
    drift (a growing table, a filling cache) and scatter is noise.
    Fewer samples than blocks gives one block per sample.
    """
    if not samples:
        return []
    n_blocks = max(1, min(n_blocks, len(samples)))
    bounds = [len(samples) * i // n_blocks for i in range(n_blocks + 1)]
    return [
        float(statistics.median(samples[low:high]))
        for low, high in zip(bounds, bounds[1:])
    ]


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    The quartiles are ``statistics.quantiles(values, n=4)``, the rule
    the benchmark contract uses for run-to-run spread.  Fewer than two
    values have no spread.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if third == first else math.inf
    return (third - first) / abs(median)
