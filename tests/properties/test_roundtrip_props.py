"""Round-trip properties across the serialization surfaces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.io_csv import write_csv
from repro.dataset.table import Table
from repro.db.connection import SqlConnection
from repro.query.predicate import RangePredicate, SetPredicate
from repro.query.query import ConjunctiveQuery

# ------------------------------------------------------------------ #
# CSV round trip
# ------------------------------------------------------------------ #

# A leading letter keeps labels non-numeric, so type inference always
# classifies the 'cat' column as categorical on reload.
safe_labels = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    max_size=7,
).map(lambda s: "L" + s)


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 40))
    numeric = draw(
        st.lists(
            st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False)),
            min_size=n, max_size=n,
        )
    )
    labels = draw(
        st.lists(st.one_of(st.none(), safe_labels), min_size=n, max_size=n)
    )
    # guarantee at least one real label so the column stays categorical
    labels[0] = labels[0] or "Lanchor"
    return Table.from_dict({"num": numeric, "cat": labels}, name="t")


class TestCsvRoundTrip:
    @given(table=random_tables())
    @settings(max_examples=60, deadline=None)
    def test_write_read_preserves_values(self, table, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(table, path)
        from repro.dataset.io_csv import read_csv

        reloaded = read_csv(path)
        original = table.numeric("num").data
        back = reloaded.column("num")
        # an all-missing numeric column reloads as categorical-with-0
        # categories; both encode "nothing there"
        if hasattr(back, "data"):
            assert np.allclose(
                original, back.data, equal_nan=True, rtol=1e-9, atol=1e-9
            )
        else:
            assert np.isnan(original).all()
        assert (
            reloaded.column("cat").decode()
            == table.categorical("cat").decode()
        )


# ------------------------------------------------------------------ #
# Query -> SQL -> SQLite round trip
# ------------------------------------------------------------------ #

TABLE = Table.from_dict(
    {
        "x": list(np.linspace(-50, 50, 200)),
        "c": [f"v{i % 7}" for i in range(200)],
    },
    name="t",
)
CONNECTION = SqlConnection({"t": TABLE})
X_VALUES = TABLE.numeric("x").data.tolist()


@st.composite
def conjunctive_queries(draw):
    predicates = []
    if draw(st.booleans()):
        # Half the bounds sit exactly on a stored value, so the rows on
        # a cut point show whether the bound reached SQLite exactly.
        bound = st.one_of(
            st.floats(-60, 60, allow_nan=False), st.sampled_from(X_VALUES)
        )
        low, high = sorted((draw(bound), draw(bound)))
        predicates.append(
            RangePredicate(
                "x", low, high,
                draw(st.booleans()) or low == high,
                draw(st.booleans()) or low == high,
            )
        )
    if draw(st.booleans()):
        values = draw(
            st.lists(
                st.sampled_from([f"v{i}" for i in range(9)]),
                min_size=1, max_size=4,
            )
        )
        predicates.append(SetPredicate("c", values))
    return ConjunctiveQuery(predicates)


class TestQuerySqlRoundTrip:
    @given(conjunctive_queries())
    @settings(max_examples=100, deadline=None)
    def test_sql_path_matches_mask(self, query):
        native = int(query.mask(TABLE).sum())
        via_sql = CONNECTION.run_query(query, "t").n_rows
        assert native == via_sql
