"""One sketch state and the one rule that merges two of them.

Section 5.1's speed comes from a bounded uniform row sample plus
per-attribute one-pass summaries.  :class:`SketchState` is that state as
one value, whoever produced it: a shard scan or a fold of them, a live
:class:`~repro.engine.backends.SketchBackend`, or a stored warm-start
summary.  Every merge of two states over disjoint rows — the shard
fold, an append's ``SketchBackend.advance``,
:meth:`~repro.sketch.reservoir.ReservoirSampler.merge` — goes through
the two functions beside it: :func:`uniform_merge` for the samples,
:func:`merge_summaries` for the GK / Misra–Gries summaries.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np


@dataclasses.dataclass(frozen=True)
class SketchState:
    """A uniform row sample plus one-pass summaries of the same rows."""

    #: Sorted distinct global row indices (a shard scan or a fold), the
    #: reservoir table (a backend), or an encoded table payload (a
    #: stored summary not yet bound to its table).
    sample: Any
    #: Rows described (a stored summary does not record it: 0 until
    #: :func:`~repro.store.warm.restore_backend` binds it).
    n_rows: int
    #: Attribute → GK quantile / Misra–Gries label / token summary.
    quantiles: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    frequencies: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    tokens: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    #: Streaming version of the table described.
    version: int = 0
    #: True when the summaries observed every row, not only the
    #: sample's; appended rows then merge in unthinned.
    full_scan: bool = False
    #: Build metadata (a shard's index and scan meters, a backend's
    #: ``"parallel"`` / ``"warm"`` blocks); never part of an answer.
    provenance: Mapping[str, Any] = dataclasses.field(default_factory=dict)


def uniform_merge(
    len_a: int,
    seen_a: int,
    len_b: int,
    seen_b: int,
    capacity: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted positions of two uniform samples that survive their merge.

    Side ``a`` sampled ``len_a`` of the ``seen_a`` rows it saw, ``b``
    likewise.  When both fit ``capacity`` all survive and nothing is
    drawn (``None``).  Otherwise ``a``'s survivor count is
    hypergeometric in the rows each side saw, clamped to what each side
    can supply, and each side's survivors are drawn uniformly — so the
    merge is a uniform ``capacity``-row sample of the union.
    """
    if len_a + len_b <= capacity:
        return None
    from_a = int(rng.hypergeometric(seen_a, seen_b, capacity))
    from_a = max(min(from_a, len_a), capacity - len_b)
    keep_a = np.sort(rng.choice(len_a, size=from_a, replace=False))
    keep_b = np.sort(rng.choice(len_b, size=capacity - from_a, replace=False))
    return keep_a, keep_b


def merge_summaries(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    """Each of ``a``'s summaries merged with ``b``'s of its attribute
    (``b``: later rows, same epsilon / counter capacity)."""
    return {
        attribute: sketch.merge(b[attribute])
        for attribute, sketch in a.items()
    }
