"""One-pass approximation substrate (paper Section 5.1).

Greenwald–Khanna quantiles for the sketch-based CUT, Misra–Gries heavy
hitters for high-cardinality categorical splits, and reservoir samples
for the anytime engine.
"""

from repro.sketch.frequency import MisraGriesSketch
from repro.sketch.quantile import GKQuantileSketch
from repro.sketch.reservoir import ReservoirSampler

__all__ = [
    "GKQuantileSketch",
    "MisraGriesSketch",
    "ReservoirSampler",
]
