"""The one-pass grid assignment equals the per-region mask loop.

:func:`repro.core.datamap.assign_regions` assigns a grid map (contiguous
ranges or disjoint label sets per split attribute, conjoined) from
per-attribute bins, and sends every other map to the mask loop
``_assign_by_masks``.  Whatever the map and the table, both must give
the same vector, dtype included.  Tables carry NaN, ±inf, values on cut
points, duplicates, missing codes and labels no dictionary holds; maps
are real CUT / product / composition output and hand-built grids with
flipped or shifted boundaries, gaps, overlaps, duplicates, dropped
cells, a region missing an attribute, and text or ``any`` predicates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AtlasConfig, NumericCutStrategy
from repro.core.cut import cut
from repro.core.datamap import (
    _assign_by_masks,
    _grid_split,
    assign_regions,
    assignment_dtype,
)
from repro.core.merge import composition, product
from repro.dataset.column import CategoricalColumn, NumericColumn
from repro.dataset.table import Table
from repro.errors import SchemaError
from repro.query.predicate import (
    AnyPredicate,
    ContainsPredicate,
    MatchPredicate,
    RangePredicate,
    SetPredicate,
)
from repro.query.query import ConjunctiveQuery

# CUT strategies on columns holding ±inf compute inf - inf on the way.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

INF = math.inf
#: Bounds the hand-built grids cut at; table values land on them often.
POINTS = (-INF, -2.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, INF)
#: "zz" is never in a table: set predicates may name absent labels.
LABELS = ("a", "b", "c", "d", "zz")

#: Table values: every bound, NaN, and values between the bounds.
VALUES = POINTS + (math.nan, -3.7, -0.2, 0.3, 1.5, 2.7, 4.0)
CELLS = LABELS[:4] + (None,)


def _column(draw, pool, n):
    """``n`` values from ``pool``, drawn as one byte string (fast)."""
    raw = draw(st.binary(min_size=n, max_size=n))
    return [pool[byte % len(pool)] for byte in raw]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 40))
    return Table([
        NumericColumn("x", _column(draw, VALUES, n)),
        NumericColumn("y", _column(draw, VALUES, n)),
        CategoricalColumn.from_values("c", _column(draw, CELLS, n)),
    ])


@st.composite
def range_pieces(draw, attribute):
    """A tiling of an interval, then maybe one defect in it."""
    bounds = sorted(draw(st.sets(st.sampled_from(POINTS), min_size=2,
                                 max_size=6)))
    owners = [draw(st.booleans()) for _ in bounds[1:-1]]  # True: left
    spans = []  # (low, high, closed_low, closed_high)
    closed_low = draw(st.booleans())
    for index in range(len(bounds) - 1):
        last = index == len(bounds) - 2
        closed_high = draw(st.booleans()) if last else owners[index]
        spans.append([bounds[index], bounds[index + 1], closed_low,
                      closed_high])
        closed_low = not closed_high
        if not last and draw(st.integers(0, 5)) == 0:
            # A one-value piece [c, c] between two pieces open at c.
            spans[-1][3] = False
            spans.append([bounds[index + 1], bounds[index + 1], True, True])
            closed_low = False
    defect = draw(st.sampled_from(["none", "none", "flip", "drop", "shift"]))
    if defect == "flip":  # one side of one boundary: overlap or gap
        span = draw(st.sampled_from(spans))
        side = draw(st.sampled_from([2, 3]))
        span[side] = not span[side]
    elif defect == "drop" and len(spans) > 1:
        spans.pop(draw(st.integers(0, len(spans) - 1)))
    elif defect == "shift":
        span = draw(st.sampled_from(spans))
        # Move one end of one piece: a gap or an overlap, or no change.
        span[1] = draw(st.sampled_from([p for p in POINTS if p >= span[0]]))
    pieces = []
    for low, high, closed_low, closed_high in spans:
        if low == high and not (closed_low and closed_high):
            closed_low = closed_high = True
        if not (math.isinf(low) and low == high):
            pieces.append(
                RangePredicate(attribute, low, high, closed_low, closed_high)
            )
    return pieces or [RangePredicate(attribute, -INF, INF)]


@st.composite
def label_pieces(draw):
    """Disjoint label groups, then maybe one label in two groups."""
    labels = draw(st.permutations(LABELS))[: draw(st.integers(2, 5))]
    cuts = sorted(draw(st.sets(st.integers(1, len(labels) - 1), min_size=1,
                               max_size=len(labels) - 1)))
    groups = [labels[i:j] for i, j in zip([0] + cuts, cuts + [len(labels)])]
    if draw(st.integers(0, 4)) == 0:
        groups[0] = tuple(groups[0]) + (groups[-1][0],)
    return [SetPredicate("c", group) for group in groups]


shared_predicates = st.sampled_from([
    None,
    RangePredicate("y", -1.0, 2.0),
    SetPredicate("c", ["a", "b", "zz"]),
    ContainsPredicate("c", "a"),
    MatchPredicate("c", "b"),
    AnyPredicate("c"),
])


@st.composite
def hand_built_regions(draw):
    """A product of per-attribute pieces, shuffled and then defaced."""
    splits = [draw(range_pieces("x"))]
    if draw(st.booleans()):
        splits.append(draw(label_pieces()))
    elif draw(st.booleans()):
        splits.append(draw(range_pieces("y")))
    shared = draw(shared_predicates)
    regions = [[]]
    for pieces in splits:
        regions = [r + [p] for r in regions for p in pieces]
    if shared is not None and shared.attribute not in {
        p.attribute for p in regions[0]
    }:
        regions = [r + [shared] for r in regions]
    regions = draw(st.permutations(regions))
    if len(regions) > 1 and draw(st.booleans()):
        # Cells no region owns, as product drops empty intersections.
        keep = draw(st.integers(1, len(regions)))
        regions = regions[:keep]
    if draw(st.integers(0, 4)) == 0:
        regions = regions + [regions[draw(st.integers(0, len(regions) - 1))]]
    mutation = draw(st.sampled_from(
        ["none", "none", "none", "missing", "any", "text", "kind"]
    ))
    victim = draw(st.integers(0, len(regions) - 1))
    region = list(regions[victim])
    if mutation == "missing" and len(region) > 1:
        region.pop(draw(st.integers(0, len(region) - 1)))
    elif mutation == "any":
        region[0] = AnyPredicate(region[0].attribute)
    elif mutation == "text":
        region = [p for p in region if p.attribute != "c"]
        region.append(ContainsPredicate("c", draw(st.sampled_from("abz"))))
    elif mutation == "kind":
        # A label set on a numeric column: the loop's SchemaError.
        region[0] = SetPredicate(region[0].attribute, ["a"])
    regions[victim] = region
    return [ConjunctiveQuery(r) for r in regions]


@st.composite
def pipeline_regions(draw, table):
    """Regions of real CUT, product and composition output."""
    config = AtlasConfig(
        numeric_strategy=draw(st.sampled_from(list(NumericCutStrategy))),
        n_splits=draw(st.integers(2, 4)),
    )
    query = draw(st.sampled_from([
        ConjunctiveQuery(),
        ConjunctiveQuery([RangePredicate("y", -1.0, 3.5)]),
        ConjunctiveQuery([SetPredicate("c", ["a", "b", "c", "zz"])]),
        ConjunctiveQuery([RangePredicate("x", -2.5, 2.0, closed_low=False)]),
    ]))
    operator = draw(st.sampled_from(["cut", "product", "composition"]))
    attributes = draw(st.permutations("xyc"))
    left = cut(table, query, attributes[0], config)
    if operator == "cut":
        return list(left.regions)
    right = cut(table, query, attributes[1], config)
    if operator == "product":
        return list(product([left, right], table).regions)
    return list(composition([left, right], table, config).regions)


def _check(table, regions):
    def mask_of(query):
        return query.mask(table)

    dtype = assignment_dtype(len(regions))
    try:
        expected = _assign_by_masks(regions, table.n_rows, mask_of, dtype)
    except SchemaError as exc:  # a wrong-kind predicate: same error
        with pytest.raises(type(exc)):
            assign_regions(regions, table, mask_of)
        return
    got = assign_regions(regions, table, mask_of)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@st.composite
def cases(draw):
    table = draw(tables())
    if draw(st.booleans()):
        return table, draw(hand_built_regions())
    return table, draw(pipeline_regions(table))


class TestGridEqualsMaskLoop:
    @given(case=cases())
    @settings(max_examples=150, deadline=None)
    def test_grid_equals_loop(self, case):
        _check(*case)

    @pytest.mark.slow
    @given(case=cases())
    @settings(max_examples=2000, deadline=None)
    def test_grid_equals_loop_at_scale(self, case):
        _check(*case)


class TestGridIsTaken:
    """The property only tests the grid if the grid serves these maps."""

    @given(table=tables(), x=range_pieces("x"), c=label_pieces())
    @settings(max_examples=60, deadline=None)
    def test_clean_tilings_take_the_grid(self, table, x, c):
        regions = [ConjunctiveQuery([p, q]) for p in x for q in c]
        tiles = all(
            a.high == b.low and a.closed_high != b.closed_low
            for a, b in zip(x, x[1:])
        )
        disjoint = len({v for q in c for v in q.values}) == sum(
            len(q.values) for q in c
        )
        multi = len(x) > 1 or len(c) > 1
        assert (_grid_split(regions, table) is not None) == (
            tiles and disjoint and multi
        )

    def test_pipeline_maps_take_the_grid(self, census_small):
        config = AtlasConfig(n_splits=3)
        age = cut(census_small, ConjunctiveQuery(), "Age", config)
        education = cut(census_small, ConjunctiveQuery(), "Education", config)
        merged = product([age, education], census_small)
        for data_map in (age, education, merged):
            assert _grid_split(data_map.regions, census_small) is not None
            _check(census_small, list(data_map.regions))
