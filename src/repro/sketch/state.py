"""One sketch state and the one rule that merges two of them.

Section 5.1's speed comes from a bounded uniform row sample plus
per-attribute one-pass summaries.  :class:`SketchState` is that state as
one value, whoever produced it: a shard scan or a fold of them, a live
:class:`~repro.engine.backends.SketchBackend`, or a stored warm-start
summary.  Its sample is always the same thing: the sorted global
positions of the sampled rows, never a copy of them.  Every merge of
two states over disjoint rows — the shard fold, an append's
``SketchBackend.advance``,
:meth:`~repro.sketch.reservoir.ReservoirSampler.merge` — goes through
the functions beside it: :func:`uniform_merge` (and
:func:`merge_row_positions`, its form over positions) for the samples,
:func:`merge_summaries` for the GK / Misra–Gries summaries.

A sample has one byte form too, shared by the ``/scan`` answer and the
stored summary: :func:`encode_sample` / :func:`decode_sample`, an
``np.packbits`` bitmap over the rows it was drawn from.
"""

from __future__ import annotations

import base64
import dataclasses
from typing import Any, Mapping

import numpy as np

_UINT8 = np.dtype("u1")


@dataclasses.dataclass(frozen=True)
class SketchState:
    """A uniform row sample plus one-pass summaries of the same rows."""

    #: Sorted distinct int64 global row positions of the sampled rows:
    #: every row when the budget covers the table (a shard scan then
    #: leaves it empty, and the build fills it in).
    sample: np.ndarray
    #: Rows described.
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


def merge_row_positions(
    sample_a: np.ndarray,
    seen_a: int,
    sample_b: np.ndarray,
    seen_b: int,
    capacity: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Merge two uniform row-position samples into one over the union.

    :func:`uniform_merge` applied to position arrays: concatenated when
    the union fits the capacity, otherwise the survivors of each side in
    their original order (so ``a``'s positions, all below ``b``'s, keep
    the result sorted).  Also returns the indices into ``sample_a`` of
    its survivors (None when all of them survive); they lead the result.
    """
    keep = uniform_merge(
        len(sample_a), seen_a, len(sample_b), seen_b, capacity, rng
    )
    if keep is None:
        return np.concatenate([sample_a, sample_b]), None
    return np.concatenate([sample_a[keep[0]], sample_b[keep[1]]]), keep[0]


def merge_row_samples(
    sample_a: np.ndarray,
    seen_a: int,
    sample_b: np.ndarray,
    seen_b: int,
    capacity: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """:func:`merge_row_positions`'s merged sample, with the number of
    rows it stands for (``seen_a + seen_b``)."""
    merged, _ = merge_row_positions(
        sample_a, seen_a, sample_b, seen_b, capacity, rng
    )
    return merged, seen_a + seen_b


def merge_summaries(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    """Each of ``a``'s summaries merged with ``b``'s of its attribute
    (``b``: later rows, same epsilon / counter capacity)."""
    return {
        attribute: sketch.merge(b[attribute])
        for attribute, sketch in a.items()
    }


def encode_buffer(array: np.ndarray, dtype: np.dtype) -> str:
    """An array as base64 of its raw little-endian ``dtype`` bytes."""
    raw = np.ascontiguousarray(array, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def decode_buffer(text: object, dtype: np.dtype, what: str) -> np.ndarray:
    """The read-only array a :func:`encode_buffer` string holds.

    Raises :class:`ValueError` naming ``what`` for a non-string, bad
    base64, or a byte count that is not a whole number of items.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"{what} must be a base64 string, got {type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"{what} is not valid base64 ({exc})") from exc
    if len(raw) % dtype.itemsize:
        raise ValueError(
            f"{what} holds {len(raw)} bytes, not a whole number of "
            f"{dtype.itemsize}-byte items"
        )
    return np.frombuffer(raw, dtype=dtype)


def encode_sample(sample: np.ndarray, low: int, n_rows: int) -> dict:
    """A sample of the rows ``[low, low + n_rows)`` as its row count and
    an ``np.packbits`` bitmap over those rows (exact: the positions are
    distinct)."""
    bitmap = np.zeros(n_rows, dtype=bool)
    bitmap[sample - low] = True
    return {
        "size": len(sample),
        "bitmap": encode_buffer(np.packbits(bitmap), _UINT8),
    }


def decode_sample(data: dict, low: int, high: int) -> np.ndarray:
    """The sorted int64 positions an :func:`encode_sample` document holds
    over the rows ``[low, high)``.

    Raises :class:`ValueError` (or ``KeyError`` / ``TypeError`` for a
    malformed document) for a bitmap of the wrong length, set padding
    bits, or a row count other than the recorded size.
    """
    n_rows = high - low
    packed = decode_buffer(data["bitmap"], _UINT8, "sample bitmap")
    if len(packed) != (n_rows + 7) // 8:
        raise ValueError(
            f"sample bitmap has {len(packed)} bytes for {n_rows} rows"
        )
    bits = np.unpackbits(packed).view(bool)  # flatnonzero is 4x faster on bool
    if bits[n_rows:].any():
        raise ValueError("sample bitmap sets padding bits")
    rows = np.flatnonzero(bits[:n_rows])
    if len(rows) != int(data["size"]):
        raise ValueError(
            f"sample bitmap holds {len(rows)} rows, not {data['size']}"
        )
    return rows.astype(np.int64, copy=False) + low
