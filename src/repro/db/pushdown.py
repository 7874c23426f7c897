"""SQL pushdown primitives: Atlas building blocks as COUNT(*) queries.

Section 4: a generic Atlas reaches the database through ODBC/JDBC, so
"only SQL may be used" — no pulling raw columns into memory.  These
functions compute the pipeline's measurements through that surface:

* :func:`sql_count` — region sizes (one statement);
* :func:`sql_numeric_range` — MIN/MAX of an attribute inside a region;
* :func:`sql_category_histogram` — label counts via GROUP BY;
* :func:`sql_region_counts` — one COUNT per region of a map;
* :func:`sql_joint_distribution` — the Definition-2 joint table, one
  COUNT per region pair plus marginals for the escape row/column.

Every function takes the :class:`~repro.db.connection.SqlConnection`
whose statement log records exactly what crossed the wire.
"""

from __future__ import annotations

import numpy as np

from repro.core.datamap import DataMap
from repro.dataset.column import CategoricalColumn
from repro.db.connection import SqlConnection
from repro.errors import QueryError
from repro.query.query import ConjunctiveQuery
from repro.query.sql import quote_identifier, where_to_sql


def sql_count(
    connection: SqlConnection, query: ConjunctiveQuery, table_name: str
) -> int:
    """COUNT(*) of a conjunctive query."""
    return connection.count(query, table_name)


def sql_numeric_range(
    connection: SqlConnection,
    attribute: str,
    table_name: str,
    region: ConjunctiveQuery | None = None,
) -> tuple[float, float]:
    """MIN/MAX of ``attribute`` inside a region, one statement."""
    ident = quote_identifier(attribute)
    params: list[float] = []
    where = where_to_sql(region, params)
    result = connection.query(
        f"SELECT MIN({ident}) AS lo, MAX({ident}) AS hi "
        f"FROM {quote_identifier(table_name)}{where}",
        params,
    )
    return (
        float(result.numeric("lo").data[0]),
        float(result.numeric("hi").data[0]),
    )


def sql_category_histogram(
    connection: SqlConnection,
    attribute: str,
    table_name: str,
    region: ConjunctiveQuery | None = None,
) -> dict[str, int]:
    """Label counts of a categorical attribute inside a region."""
    ident = quote_identifier(attribute)
    params: list[float] = []
    where = where_to_sql(region, params)
    result = connection.query(
        f"SELECT {ident}, COUNT(*) AS n "
        f"FROM {quote_identifier(table_name)}{where} "
        f"GROUP BY {ident} ORDER BY {ident}",
        params,
    )
    labels = result.column(attribute)
    if not isinstance(labels, CategoricalColumn):
        return {}  # no rows, or only the NULL group: no label at all
    # Missing labels form a NULL group, which is not a category.
    return {
        label: int(n)
        for label, n in zip(labels.decode(), result.numeric("n").data)
        if label is not None
    }


def sql_region_counts(
    connection: SqlConnection, data_map: DataMap, table_name: str
) -> np.ndarray:
    """COUNT(*) per region of a map (one statement per region)."""
    return np.array(
        [
            sql_count(connection, region, table_name)
            for region in data_map.regions
        ],
        dtype=np.float64,
    )


def sql_joint_distribution(
    connection: SqlConnection,
    map_a: DataMap,
    map_b: DataMap,
    table_name: str,
    base: ConjunctiveQuery | None = None,
    total: int | None = None,
) -> np.ndarray:
    """The Definition-2 joint probability table through SQL.

    One COUNT per (region_a, region_b) pair whose conjunction is
    satisfiable, plus one per region for the marginals; the escape
    row/column come from subtraction, so no tuples ever leave the
    server.  ``base`` restricts the underlying population to the set
    the user query describes.
    """
    base = base or ConjunctiveQuery()
    if total is None:
        total = sql_count(connection, base, table_name)
    if total == 0:
        raise QueryError("the described set is empty")

    k, l = map_a.n_regions, map_b.n_regions
    joint = np.zeros((k + 1, l + 1), dtype=np.float64)
    row_counts = np.zeros(k, dtype=np.float64)
    col_counts = np.zeros(l, dtype=np.float64)

    for i, region_a in enumerate(map_a.regions):
        based_a = base.conjoin(region_a)
        row_counts[i] = (
            0 if based_a is None else sql_count(connection, based_a, table_name)
        )
    for j, region_b in enumerate(map_b.regions):
        based_b = base.conjoin(region_b)
        col_counts[j] = (
            0 if based_b is None else sql_count(connection, based_b, table_name)
        )

    for i, region_a in enumerate(map_a.regions):
        for j, region_b in enumerate(map_b.regions):
            cell = region_a.conjoin(region_b)
            cell = base.conjoin(cell) if cell is not None else None
            joint[i, j] = (
                0 if cell is None else sql_count(connection, cell, table_name)
            )

    # Escape cells by subtraction: row i escape = |A_i| − Σ_j cell(i, j).
    for i in range(k):
        joint[i, l] = max(0.0, row_counts[i] - joint[i, :l].sum())
    for j in range(l):
        joint[k, j] = max(0.0, col_counts[j] - joint[:k, j].sum())
    joint[k, l] = max(0.0, total - joint.sum())
    return joint / total
