"""Seeded op-stream generators.

Everything a workload sends is a pure function of ``--seed`` (and the
client index), produced here; the program under test only ever sees
the generated query text.  The generators are endless, because a run is
bounded by time, and cheap, because with two clients on one event loop
whatever one client computes between ops is added to the other's wait.

The numeric rule — a random sub-range covering 30-100 % of the
attribute's span — is the one ``repro.evaluation.workloads.random_query``
uses, written out again so that the harness does not import it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np


@dataclasses.dataclass(frozen=True)
class NumericDim:
    name: str
    low: float
    high: float


@dataclasses.dataclass(frozen=True)
class CategoricalDim:
    name: str
    labels: tuple[str, ...]


def stream_rng(seed: int, client: int, purpose: str) -> np.random.Generator:
    """An independent generator per (seed, client, purpose)."""
    salt = sum(purpose.encode("ascii"))
    return np.random.default_rng([seed, client, salt])


def range_predicate(
    dim: NumericDim, rng: np.random.Generator, share: float | None = None
) -> str:
    """A sub-range covering ``share`` (default: random 30-100 %) of the span."""
    if share is None:
        share = float(rng.uniform(0.3, 1.0))
    span = dim.high - dim.low
    width = span * share
    start = dim.low + float(rng.uniform(0.0, span - width))
    return f"{dim.name}: [{start!r}, {start + width!r}]"


def set_predicate(dim: CategoricalDim, rng: np.random.Generator) -> str:
    size = int(rng.integers(1, len(dim.labels) + 1))
    picked = rng.choice(len(dim.labels), size=size, replace=False)
    labels = ", ".join(repr(dim.labels[int(i)]) for i in sorted(picked))
    return f"{dim.name}: {{{labels}}}"


#: Queries per stratified round of :func:`numeric_queries`.
ROUND = 16


def numeric_queries(
    dims: Sequence[NumericDim], rng: np.random.Generator, max_attributes: int = 4
) -> Iterator[str]:
    """Random ranges on 1..``max_attributes`` numeric attributes.

    What a query costs follows its attribute count and how much of the
    table its ranges keep, so both are stratified: every round of
    ``ROUND`` queries holds each attribute count equally often and one
    first-range share from each ``ROUND``-th of 30-100 %, in seeded
    order.  The marginals are those of independent draws; what the
    strata remove is the luck of one seed drawing a cheaper mix than
    another, which would otherwise read as run-to-run noise.
    """
    top = min(max_attributes, len(dims))
    while True:
        counts = rng.permutation(np.arange(ROUND) % top + 1)
        shares = 0.3 + 0.7 * (rng.permutation(ROUND) + rng.uniform(size=ROUND)) / ROUND
        for count, share in zip(counts, shares):
            chosen = rng.choice(len(dims), size=int(count), replace=False)
            lines = [range_predicate(dims[int(chosen[0])], rng, float(share))]
            lines += [range_predicate(dims[int(i)], rng) for i in chosen[1:]]
            yield "\n".join(lines)


def range_and_set_queries(
    numeric: NumericDim,
    categorical: Sequence[CategoricalDim],
    rng: np.random.Generator,
    max_sets: int = 3,
) -> Iterator[str]:
    """One continuous range plus 0..``max_sets`` label-set predicates.

    The continuous bounds make every query distinct, so a result cache
    keyed by the query can never hit.
    """
    while True:
        lines = [range_predicate(numeric, rng)]
        count = int(rng.integers(0, min(max_sets, len(categorical)) + 1))
        for i in rng.choice(len(categorical), size=count, replace=False):
            lines.append(set_predicate(categorical[int(i)], rng))
        yield "\n".join(lines)


def replay(pool_size: int, rng: np.random.Generator) -> Iterator[int]:
    """Indices into a fixed pool, in seeded order."""
    while True:
        yield int(rng.integers(0, pool_size))
