"""Reservoir sampling: the substrate of the anytime engine (Section 5.1).

The paper's anytime variant "would continually take small samples of the
data and update a set of approximate results".  :class:`ReservoirSampler`
maintains a uniform fixed-size sample over a stream (Vitter's algorithm R).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import SketchError
from repro.sketch.state import uniform_merge


class ReservoirSampler:
    """Uniform fixed-size sample over a stream (algorithm R)."""

    def __init__(self, capacity: int, rng: np.random.Generator | int | None = None):
        if capacity < 1:
            raise SketchError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rng = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        self._items: list[object] = []
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Reservoir size."""
        return self._capacity

    @property
    def seen(self) -> int:
        """Number of stream items observed."""
        return self._seen

    @property
    def items(self) -> list[object]:
        """Current sample (order not meaningful)."""
        return list(self._items)

    def insert(self, item: object) -> None:
        """Observe one stream item."""
        self._seen += 1
        if len(self._items) < self._capacity:
            self._items.append(item)
            return
        slot = int(self._rng.integers(0, self._seen))
        if slot < self._capacity:
            self._items[slot] = item

    def extend(self, items: Iterable[object]) -> None:
        """Observe many stream items."""
        for item in items:
            self.insert(item)

    # ------------------------------------------------------------------ #
    # Merging and serde
    # ------------------------------------------------------------------ #

    def merge(
        self, other: "ReservoirSampler",
        rng: np.random.Generator | int | None = None,
    ) -> "ReservoirSampler":
        """Combine two reservoirs into one over the union of streams.

        The uniform-merge rule every sample merge shares
        (:func:`repro.sketch.state.uniform_merge`): when the combined
        items fit the capacity they are concatenated (deterministic —
        merging is then exactly associative and commutative up to item
        order); otherwise the survivors of each side are drawn weighted
        by the stream sizes, which keeps the result a uniform sample of
        the union.  ``rng`` makes the subsampling reproducible.
        """
        if other.capacity != self._capacity:
            raise SketchError(
                "cannot merge reservoirs of different capacities "
                f"({self._capacity} vs {other.capacity})"
            )
        generator = np.random.default_rng(rng)
        merged = ReservoirSampler(self._capacity, rng=generator)
        merged._seen = self._seen + other._seen
        mine, theirs = self._items, other._items
        keep = uniform_merge(
            len(mine), self._seen, len(theirs), other._seen,
            self._capacity, generator,
        )
        if keep is not None:
            mine = [mine[i] for i in keep[0]]
            theirs = [theirs[i] for i in keep[1]]
        merged._items = mine + theirs
        return merged

    def to_dict(self) -> dict:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return {
            "kind": "reservoir",
            "capacity": self._capacity,
            "seen": self._seen,
            "items": list(self._items),
        }

    @classmethod
    def from_dict(
        cls, data: dict, rng: np.random.Generator | int | None = None
    ) -> "ReservoirSampler":
        """Rebuild a reservoir from :meth:`to_dict` output.

        The RNG is not part of the serialized state; pass one to make
        future inserts reproducible.
        """
        try:
            sampler = cls(int(data["capacity"]), rng=rng)
            items = list(data["items"])
            seen = int(data["seen"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SketchError(f"malformed reservoir payload: {exc}") from exc
        if seen < len(items) or len(items) > sampler.capacity:
            raise SketchError(
                f"inconsistent reservoir payload: {len(items)} items, "
                f"{seen} seen, capacity {sampler.capacity}"
            )
        sampler._items = items
        sampler._seen = seen
        return sampler
