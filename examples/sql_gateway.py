"""The generic SQL access path (paper Section 4).

A generic Atlas cannot use a native driver: "only SQL may be used".
This example runs the exploration loop's data accesses through the
SQL-text-only connection — every request is emitted as SQL text and run
by an in-memory SQLite database — and prints the statement log, i.e.
exactly what would cross an ODBC/JDBC wire.

Run:  python examples/sql_gateway.py
"""

from repro import explorer, parse_query
from repro.datagen import census_table
from repro.db import SqlConnection

table = census_table(n_rows=10_000, seed=0)
connection = SqlConnection({table.name: table})

query = parse_query("""
Age: [17, 90]
Sex: any
Salary: any
Education: {'BSc', 'MSc'}
""")

# --- the engine's cover/count requests, through SQL --------------------
n_described = connection.count(query, table.name)
print(f"user query describes {n_described} of {table.n_rows} tuples")

# --- fetch the region a map proposes, through SQL -----------------------
result = explorer(table).explore(query)
region = result.best.regions[0]
fetched = connection.run_query(region, table.name)
print(f"\ntop map: {result.best.label}")
print(f"region 0 ({region.describe_inline()}) -> {fetched.n_rows} tuples via SQL")

# --- aggregate pushdown: the §5.1 histogram in one statement ------------
histogram = connection.query(
    'SELECT "Education", COUNT(*), AVG("Age") FROM "census" '
    'WHERE "Age" BETWEEN 17 AND 90 GROUP BY "Education"'
)
print("\nGROUP BY pushdown result:")
for row in histogram.head(histogram.n_rows):
    print(f"  {row}")

# --- what crossed the wire ----------------------------------------------
print("\nstatement log:")
for statement in connection.statement_log:
    print(f"  {statement}")
