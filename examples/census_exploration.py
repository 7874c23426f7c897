"""Interactive-style exploration of the survey: the Figure-1 loop.

Drives an :class:`~repro.core.session.ExplorationSession` through the
two verbs of the paper — drill into a region, request the next map —
and prints the breadcrumb trail, exactly what a user clicking through
the Atlas GUI would experience.

Run:  python examples/census_exploration.py
"""

from repro import AtlasConfig, explorer, parse_query
from repro.core.session import ExplorationSession
from repro.datagen import census_table
from repro.frontend import render_breadcrumb, render_map, render_map_set

table = census_table(n_rows=20_000, seed=1)
session = ExplorationSession(explorer(table, AtlasConfig()))

query = parse_query("""
Sex: any
Salary: any
Age: [17, 90]
Eye color: {'Blue', 'Green', 'Brown'}
Education: {'BSc', 'MSc'}
""")

print(">>> session.start(query)")
maps = session.start(query)
print(render_map_set(maps, table))

print("\n>>> session.next_map()   # 'request a new map'")
shown = session.next_map()
print(render_map(shown, table))

print("\n>>> session.drill(0)     # submit region 0 for further exploration")
maps = session.drill(0)
print(render_map_set(maps, table))

print("\n>>> session.drill(1)     # one level deeper")
maps = session.drill(1)
print(render_map_set(maps, table))

print("\n>>> breadcrumb")
print(render_breadcrumb(session.breadcrumb()))

print("\n>>> session.back()       # retreat one level")
session.back()
print(render_breadcrumb(session.breadcrumb()))
