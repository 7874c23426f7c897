"""Quality metrics for the reproduction experiments.

* :func:`adjusted_rand_index` — agreement between a map's region
  assignment and planted cluster labels, chance-corrected (from scratch;
  scipy/sklearn-free).
* :func:`map_recovery` — how well one map recovers a planted subspace
  structure: the ARI between its assignment and the planted labels.
* :func:`best_map_recovery` — the best recovery over the top-k of a
  ranked result (the "lazy top-k" quality the Section-6 comparison needs).
* :func:`attribute_recall` — did any top-k map use exactly the planted
  subspace attributes?
* :func:`split_sse` — within-partition sum of squares of a 1-D split
  (lower = tighter clusters), for the cut-strategy ablation.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.datamap import DataMap
from repro.dataset.table import Table
from repro.engine.pipeline import MapSet
from repro.errors import AtlasError


def _comb2(values: np.ndarray) -> float:
    values = values.astype(np.float64)
    return float((values * (values - 1.0) / 2.0).sum())


def adjusted_rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Adjusted Rand Index between two labelings (−0.5 … 1).

    1 means identical partitions; ~0 means chance agreement.  Label
    values are arbitrary integers; negative labels are legal (e.g. the
    map ESCAPE outcome) and treated as one more class.
    """
    labels_a = np.asarray(labels_a).ravel()
    labels_b = np.asarray(labels_b).ravel()
    if labels_a.shape != labels_b.shape:
        raise AtlasError(
            f"label arrays differ in length: {labels_a.size} vs {labels_b.size}"
        )
    if labels_a.size == 0:
        raise AtlasError("cannot compute ARI of empty labelings")

    _, codes_a = np.unique(labels_a, return_inverse=True)
    _, codes_b = np.unique(labels_b, return_inverse=True)
    n_a = codes_a.max() + 1
    n_b = codes_b.max() + 1
    contingency = np.zeros((n_a, n_b), dtype=np.int64)
    np.add.at(contingency, (codes_a, codes_b), 1)

    sum_cells = _comb2(contingency.ravel())
    sum_rows = _comb2(contingency.sum(axis=1))
    sum_cols = _comb2(contingency.sum(axis=0))
    total = _comb2(np.array([labels_a.size]))

    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0 if sum_cells == expected else 0.0
    return float((sum_cells - expected) / (maximum - expected))


def map_recovery(
    data_map: DataMap, table: Table, planted_labels: np.ndarray
) -> float:
    """ARI between a map's region assignment and planted labels."""
    return adjusted_rand_index(data_map.assign(table), planted_labels)


def best_map_recovery(
    result: MapSet | Sequence[DataMap],
    table: Table,
    planted_labels: np.ndarray,
    top_k: int | None = None,
) -> float:
    """Best planted-structure recovery over the top-k ranked maps."""
    maps = list(result.maps if isinstance(result, MapSet) else result)
    if top_k is not None:
        maps = maps[:top_k]
    if not maps:
        return 0.0
    return max(map_recovery(m, table, planted_labels) for m in maps)


def attribute_recall(
    result: MapSet | Sequence[DataMap],
    planted_attributes: Sequence[str],
    top_k: int | None = None,
) -> bool:
    """True when a top-k map is based on exactly the planted attributes."""
    maps = list(result.maps if isinstance(result, MapSet) else result)
    if top_k is not None:
        maps = maps[:top_k]
    wanted = set(planted_attributes)
    return any(set(m.attributes) == wanted for m in maps)


def purity(assignment: np.ndarray, labels: np.ndarray) -> float:
    """Weighted purity of a partition against ground-truth labels.

    For each region, the fraction of members sharing the region's
    majority label, weighted by region size.  1.0 means every region is
    label-pure.  Unlike ARI, purity does not punish a partition for
    *refining* the truth — the right score for maps whose extra cuts
    subdivide a planted cluster.
    """
    assignment = np.asarray(assignment).ravel()
    labels = np.asarray(labels).ravel()
    if assignment.shape != labels.shape:
        raise AtlasError(
            f"length mismatch: {assignment.size} vs {labels.size}"
        )
    if assignment.size == 0:
        raise AtlasError("cannot compute purity of empty labelings")
    total = 0
    for region in np.unique(assignment):
        members = labels[assignment == region]
        __, counts = np.unique(members, return_counts=True)
        total += counts.max()
    return float(total / assignment.size)


def map_purity(
    data_map: DataMap, table: Table, planted_labels: np.ndarray
) -> float:
    """Purity of a map's region assignment against planted labels."""
    return purity(data_map.assign(table), planted_labels)


def best_map_purity(
    result: MapSet | Sequence[DataMap],
    table: Table,
    planted_labels: np.ndarray,
    top_k: int | None = None,
) -> float:
    """Best purity over the top-k ranked maps."""
    maps = list(result.maps if isinstance(result, MapSet) else result)
    if top_k is not None:
        maps = maps[:top_k]
    if not maps:
        return 0.0
    return max(map_purity(m, table, planted_labels) for m in maps)


def map_set_fingerprint(map_set: MapSet) -> str:
    """Stable content hash of an answer, excluding wall-clock timings.

    Covers everything deterministic about a :class:`MapSet` — the
    query, every ranked map with its score and covers (floats rendered
    with ``repr``, so the hash is bit-exact), the rows used, and the
    fidelity/version provenance.  Two answers with equal fingerprints
    are bit-identical results; the parallel-execution determinism
    tests and the E20 gate compare worker counts with this.
    """
    import hashlib
    import json

    payload = {
        "query": map_set.query.to_dict(),
        "ranked": [
            {
                "map": entry.map.to_dict(),
                "score": repr(entry.score),
                "covers": [repr(c) for c in entry.covers],
            }
            for entry in map_set.ranked
        ],
        "n_rows_used": map_set.n_rows_used,
        "fidelity": map_set.fidelity,
        "version": map_set.version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ranked_map_agreement(
    result_a: MapSet | Sequence[DataMap],
    result_b: MapSet | Sequence[DataMap],
    table: Table,
    top_k: int = 3,
) -> float:
    """Agreement between the top-k maps of two ranked answers, in [0, 1].

    For each top-k map of one answer, the best similarity
    (1 − normalized VI, measured on ``table``) against the other
    answer's top-k is found; the score is the symmetrized mean.  1.0
    means the two answers reveal the same partitions (up to order);
    0.0 means they are statistically independent.  This is the measure
    the E18 speed-vs-accuracy experiment reports for approximate
    (sketch-fidelity) versus exact execution.
    """
    from repro.core.distance import map_nvi

    maps_a = list(result_a.maps if isinstance(result_a, MapSet) else result_a)
    maps_b = list(result_b.maps if isinstance(result_b, MapSet) else result_b)
    maps_a, maps_b = maps_a[:top_k], maps_b[:top_k]
    if not maps_a and not maps_b:
        return 1.0
    if not maps_a or not maps_b:
        return 0.0
    similarity = [
        [1.0 - map_nvi(a, b, table) for b in maps_b] for a in maps_a
    ]
    best_a = sum(max(row) for row in similarity) / len(maps_a)
    best_b = sum(
        max(similarity[i][j] for i in range(len(maps_a)))
        for j in range(len(maps_b))
    ) / len(maps_b)
    return (best_a + best_b) / 2.0


def split_sse(values: np.ndarray, cut_points: Sequence[float]) -> float:
    """Within-partition sum of squared deviations of a 1-D split.

    The intra-cluster-distance objective the paper's ``twomeans`` cut
    optimizes; the ablation compares strategies on it.
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise AtlasError("split_sse needs at least one value")
    edges = [-np.inf] + sorted(float(c) for c in cut_points) + [np.inf]
    total = 0.0
    for low, high in zip(edges[:-1], edges[1:]):
        part = values[(values > low) & (values <= high)]
        if part.size:
            total += float(((part - part.mean()) ** 2).sum())
    return total


def region_balance(covers: Sequence[float]) -> float:
    """Max/min cover ratio of the non-empty regions (1 = perfectly even)."""
    positive = [c for c in covers if c > 0]
    if not positive:
        raise AtlasError("no non-empty region")
    return max(positive) / min(positive)
