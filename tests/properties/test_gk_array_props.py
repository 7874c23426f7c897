"""Differential properties: the array GK summary vs a list-of-tuples oracle.

:class:`~repro.sketch.quantile.GKQuantileSketch` stores its summary as
three numpy arrays and merges them with ``searchsorted`` and array
arithmetic.  The oracle below is the straightforward form — a list of
``[value, g, delta]`` lists, interleaved one tuple at a time and
compressed by deleting from the tail — and every property compares the
two through ``to_dict``, serialized byte for byte (answers through
``repr``), so a merge, compress, online insert or query that differs
in a single delta fails.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.quantile import GKQuantileSketch


def oracle_compress(tuples: list[list], epsilon: float, count: int) -> None:
    """Right-to-left greedy compress, in place, deleting from a list."""
    if len(tuples) < 3:
        return
    threshold = int(math.floor(2.0 * epsilon * count))
    i = len(tuples) - 2
    while i >= 1:
        current, nxt = tuples[i], tuples[i + 1]
        if current[1] + nxt[1] + nxt[2] <= threshold:
            nxt[1] += current[1]
            del tuples[i]
        i -= 1


def oracle_merge(a: dict, b: dict) -> dict:
    """The GK merge of two ``to_dict`` payloads, one tuple at a time.

    Ties take ``a`` first; each tuple's delta absorbs the next tuple of
    the other side (``delta + g + delta - 1``, clamped at 0).
    """
    epsilon = max(a["epsilon"], b["epsilon"])
    count = a["count"] + b["count"]
    left, right = a["tuples"], b["tuples"]
    combined: list[list] = []
    i = j = 0
    while i < len(left) or j < len(right):
        take_a = j >= len(right) or (
            i < len(left) and left[i][0] <= right[j][0]
        )
        current, others, position = (
            (left[i], right, j) if take_a else (right[j], left, i)
        )
        if position < len(others):
            nxt = others[position]
            delta = current[2] + nxt[1] + nxt[2] - 1
        else:
            delta = current[2]
        combined.append([current[0], current[1], max(0, delta)])
        if take_a:
            i += 1
        else:
            j += 1
    oracle_compress(combined, epsilon, count)
    return {
        "kind": "gk_quantile",
        "epsilon": epsilon,
        "count": count,
        "tuples": combined,
    }


def oracle_inserts(values: list[float], epsilon: float) -> dict:
    """The classic online GK update (insert + periodic compress)."""
    tuples: list[list] = []
    count = 0
    period = max(1, int(math.floor(1.0 / (2.0 * epsilon))))
    for since, value in enumerate(values, start=1):
        count += 1
        position = 0
        while position < len(tuples) and tuples[position][0] < value:
            position += 1
        if position == 0 or position == len(tuples):
            tuples.insert(position, [value, 1, 0])
        else:
            threshold = int(math.floor(2.0 * epsilon * count))
            neighbour = tuples[position]
            delta = max(0, neighbour[1] + neighbour[2] - 1)
            if delta > threshold:
                delta = max(0, threshold - 1)
            tuples.insert(position, [value, 1, delta])
        if since % period == 0:
            oracle_compress(tuples, epsilon, count)
    return {
        "kind": "gk_quantile",
        "epsilon": epsilon,
        "count": count,
        "tuples": tuples,
    }


def oracle_query(payload: dict, quantile: float) -> float:
    """The GK answer by walking the tuples (non-empty payload)."""
    tuples = payload["tuples"]
    if quantile == 0.0:
        return tuples[0][0]
    if quantile == 1.0:
        return tuples[-1][0]
    count = payload["count"]
    target = max(1.0, math.ceil(quantile * count))
    margin = max(payload["epsilon"] * count, 1.0)
    min_rank = 0
    answer = tuples[0][0]
    for value, g, delta in tuples:
        min_rank += g
        if min_rank + delta > target + margin:
            break
        answer = value
    return answer


def wire(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


# A small value pool makes ties within and across sides the norm;
# -0.0 and 0.0 compare equal and must tie too.
tie_values = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, 7.25])
value_lists = st.one_of(
    st.lists(tie_values, min_size=0, max_size=120),
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=0, max_size=120
    ),
)
# Coarse epsilons make compress merge; fine ones keep every tuple.
epsilons = st.sampled_from([0.005, 0.05, 0.1, 0.2, 0.45])


def canonical(values: list[float], epsilon: float) -> dict:
    return GKQuantileSketch.from_sorted(sorted(values), epsilon).to_dict()


class TestMergeMatchesOracle:
    @given(a=value_lists, b=value_lists, ea=epsilons, eb=epsilons)
    @settings(max_examples=200, deadline=None)
    def test_pairwise_merge(self, a, b, ea, eb):
        left, right = canonical(a, ea), canonical(b, eb)
        merged = GKQuantileSketch.from_dict(left).merge(
            GKQuantileSketch.from_dict(right)
        )
        assert wire(merged.to_dict()) == wire(oracle_merge(left, right))

    @given(
        sides=st.lists(value_lists, min_size=2, max_size=6),
        epsilon=epsilons,
    )
    @settings(max_examples=120, deadline=None)
    def test_shard_order_fold(self, sides, epsilon):
        # A sharded build's fold: later merges see nonzero deltas and
        # absorbing tuples whose g has already grown.
        payloads = [canonical(side, epsilon) for side in sides]
        folded = GKQuantileSketch.from_dict(payloads[0])
        expected = payloads[0]
        for payload in payloads[1:]:
            folded = folded.merge(GKQuantileSketch.from_dict(payload))
            expected = oracle_merge(expected, payload)
            assert wire(folded.to_dict()) == wire(expected)

    @given(values=value_lists, epsilon=epsilons)
    @settings(max_examples=60, deadline=None)
    def test_empty_and_one_tuple_sides(self, values, epsilon):
        payload = canonical(values, epsilon)
        for other in (canonical([], epsilon), canonical([1.0], 0.3)):
            for left, right in ((payload, other), (other, payload)):
                merged = GKQuantileSketch.from_dict(left).merge(
                    GKQuantileSketch.from_dict(right)
                )
                assert wire(merged.to_dict()) == wire(
                    oracle_merge(left, right)
                )


class TestQueryMatchesOracle:
    @given(
        sides=st.lists(value_lists.filter(bool), min_size=1, max_size=4),
        epsilon=epsilons,
        quantiles=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_query(self, sides, epsilon, quantiles):
        payload = canonical(sides[0], epsilon)
        for side in sides[1:]:
            payload = oracle_merge(payload, canonical(side, epsilon))
        sketch = GKQuantileSketch.from_dict(payload)
        for quantile in [0.0, 1.0, *quantiles]:
            answer = sketch.query(quantile)
            assert type(answer) is float
            assert repr(answer) == repr(oracle_query(payload, quantile))


class TestInsertMatchesOracle:
    @given(
        values=st.lists(
            st.one_of(tie_values, st.floats(-1e3, 1e3, allow_nan=False)),
            min_size=0,
            max_size=200,
        ),
        epsilon=epsilons,
    )
    @settings(max_examples=80, deadline=None)
    def test_online_inserts(self, values, epsilon):
        sketch = GKQuantileSketch(epsilon=epsilon)
        for value in values:
            sketch.insert(value)
        assert wire(sketch.to_dict()) == wire(oracle_inserts(values, epsilon))
