"""The median CUT through a column's sorted order equals the gather path.

A numeric column builds its sorted order on its second median cut, and
cuts selecting at least about 10 % of the rows read min, max and the
quantiles through it.  Whatever the values (ties, NaN, ±inf, constant,
all-missing), the mask and the parent range, that path must return the
same map, region for region and bound for bound, as the gather path a
fresh column takes; its quantile rule must equal ``np.quantile`` bit
for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig
from repro.core.cut import _linear_quantile, cut
from repro.dataset.table import Table
from repro.query.predicate import RangePredicate
from repro.query.query import ConjunctiveQuery

SPECIALS = [0.0, 1.0, -2.5, 3.0, 7.25, math.inf, -math.inf, math.nan]

values_strategy = st.one_of(
    st.lists(
        st.one_of(st.sampled_from(SPECIALS), st.floats(-1e6, 1e6)),
        min_size=0,
        max_size=120,
    ),
    st.builds(
        lambda v, n: [v] * n,
        st.sampled_from(SPECIALS),
        st.integers(0, 40),
    ),
)

bounds = st.sampled_from([-math.inf, -3.0, -2.5, 0.0, 1.0, 3.0, 5.0, math.inf])


@st.composite
def parents(draw):
    """No parent predicate, or a range with open or closed bounds."""
    if draw(st.booleans()):
        return None
    low, high = sorted((draw(bounds), draw(bounds)))
    closed_low = draw(st.booleans()) and low > -math.inf
    closed_high = draw(st.booleans()) and high < math.inf
    if low == high and not (closed_low and closed_high):
        return None
    return RangePredicate("x", low, high, closed_low, closed_high)


def same_float(a: float, b: float) -> bool:
    """Equal bit for bit, up to the NaN payload."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSortedMedianCut:
    @given(
        values=st.lists(st.floats(allow_nan=False), min_size=2, max_size=40),
        n_splits=st.integers(2, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_linear_quantile_is_numpys(self, values, n_splits):
        # -0.0 and 0.0 tie, and a partition may swap them; fold them.
        ordered = sorted(v + 0.0 for v in values)
        for j in range(1, n_splits):
            q = j / n_splits
            with np.errstate(invalid="ignore", over="ignore"):
                expected = float(np.quantile(np.array(ordered), [q])[0])
            got = _linear_quantile(ordered.__getitem__, len(ordered), q)
            assert same_float(got, expected)

    @given(
        values=values_strategy,
        parent=parents(),
        density=st.sampled_from([0.01, 0.05, 0.09, 0.1, 0.11, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**16),
        n_splits=st.integers(2, 5),
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_the_gather_path(self, values, parent, density, seed, n_splits):
        config = AtlasConfig(numeric_strategy="median", n_splits=n_splits)
        query = ConjunctiveQuery([] if parent is None else [parent])
        table = Table.from_dict({"x": values})
        n_rows = table.n_rows
        rng = np.random.default_rng(seed)
        mask = query.mask(table) & (rng.random(n_rows) < density)

        # A fresh column's first cut takes the gather path.
        reference = cut(
            Table.from_dict({"x": values}), query, "x", config, region_mask=mask
        )
        first = cut(table, query, "x", config, region_mask=mask)
        second = cut(table, query, "x", config, region_mask=mask)

        assert list(first.regions) == list(reference.regions)
        assert list(second.regions) == list(reference.regions)
        selective = 10 * int(mask.sum()) >= n_rows
        # Two selective cuts built the order; otherwise this is the mark.
        column = table.numeric("x")
        assert (column.sorted_order() is not None) == selective
