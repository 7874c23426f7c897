"""Joint contingency tables between maps (support for Definition 2).

Each map induces an *underlying variable*: the region index of a random
tuple (plus an escape outcome for uncovered tuples).  The statistical
dependency between two maps is read off the joint distribution of their
underlying variables, estimated by counting tuples per (region_i,
region_j) cell in one vectorized pass.
"""

from __future__ import annotations

import numpy as np

from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.errors import MapError


def joint_counts(assignment_a: np.ndarray, assignment_b: np.ndarray,
                 n_regions_a: int, n_regions_b: int) -> np.ndarray:
    """Joint count table from two assignment vectors.

    Escape assignments (−1) are folded into an extra final row/column, so
    the table has shape ``(n_regions_a + 1, n_regions_b + 1)`` and its sum
    equals the number of tuples.  The cell index is built in ``intp``:
    int8 assignments would overflow it past 127 cells.
    """
    if assignment_a.shape != assignment_b.shape:
        raise MapError(
            f"assignment length mismatch: {assignment_a.shape} vs "
            f"{assignment_b.shape}"
        )
    rows = np.where(assignment_a < 0, n_regions_a, assignment_a).astype(np.intp)
    cols = np.where(assignment_b < 0, n_regions_b, assignment_b)
    flat = rows * (n_regions_b + 1) + cols
    counts = np.bincount(flat, minlength=(n_regions_a + 1) * (n_regions_b + 1))
    return counts.reshape(n_regions_a + 1, n_regions_b + 1)


def joint_distribution(
    map_a: DataMap, map_b: DataMap, table: Table
) -> np.ndarray:
    """Joint probability table of two maps' underlying variables."""
    if table.n_rows == 0:
        raise MapError("cannot estimate a joint distribution on an empty table")
    counts = joint_counts(
        map_a.assign(table), map_b.assign(table),
        map_a.n_regions, map_b.n_regions,
    )
    return counts.astype(np.float64) / table.n_rows


def joint_distribution_from_assignments(
    assignment_a: np.ndarray,
    assignment_b: np.ndarray,
    n_regions_a: int,
    n_regions_b: int,
) -> np.ndarray:
    """Joint probability table from precomputed assignments.

    The pipeline assigns every tuple once per map and reuses the vectors
    for all pairwise distances — the main §5.1 "algorithm optimization".
    """
    counts = joint_counts(assignment_a, assignment_b, n_regions_a, n_regions_b)
    total = counts.sum()
    if total == 0:
        raise MapError("cannot normalize an empty contingency table")
    return counts.astype(np.float64) / total
