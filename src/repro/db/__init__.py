"""Generic DBMS access layer (paper Section 4).

The two connection shapes the paper names — native typed access (MAPI
analogue) and SQL-text-only access (ODBC/JDBC analogue, run by the
standard library's SQLite) — plus the COUNT(*) pushdowns and
:class:`SqlAtlas`, the pipeline driven through SQL text alone.
"""

from repro.db.connection import (
    Connection,
    NativeConnection,
    SqlConnection,
    SqlExecutionError,
)
from repro.db.pushdown import (
    sql_category_histogram,
    sql_count,
    sql_joint_distribution,
    sql_numeric_range,
    sql_region_counts,
)
from repro.db.sql_atlas import SqlAtlas

__all__ = [
    "Connection",
    "NativeConnection",
    "SqlAtlas",
    "SqlConnection",
    "SqlExecutionError",
    "sql_category_histogram",
    "sql_count",
    "sql_joint_distribution",
    "sql_numeric_range",
    "sql_region_counts",
]
