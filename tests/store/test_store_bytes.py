"""The store's bytes on disk, against the bytes the user handed it.

A registered tickets table with one persisted sketch summary must take
at most 2.5 bytes of database and WAL per user byte: the store economy
target for tickets, counted here until the benchmark harness reports
the ratio per workload.
"""

from __future__ import annotations

import os

from repro.datagen import support_tickets_table
from repro.dataset.column import NumericColumn
from repro.dataset.table import Table
from repro.service import ExplorationService


def user_bytes(table: Table) -> int:
    """Raw bytes of the columns: value buffers plus label dictionaries
    (the benchmark harness's definition)."""
    total = 0
    for column in table.columns:
        if isinstance(column, NumericColumn):
            total += column.data.nbytes
        else:
            total += column.codes.nbytes
            total += sum(len(label.encode("utf-8")) for label in column.categories)
    return total


def test_tickets_with_one_summary_take_at_most_two_and_a_half_bytes_per_user_byte(tmp_path):
    """3.76 when every label was also copied into an FTS5 table and the
    dictionaries were JSON; 1.74 with one checksummed copy of the text
    (20k rows, default sketch fidelity, store still open)."""
    path = str(tmp_path / "atlas.db")
    table = support_tickets_table(n_rows=20_000, seed=0)
    with ExplorationService(max_workers=1, store=path) as service:
        service.register(table, persist=True)
        service.explore(table.name, "hours_open: [0, 48]", fidelity="sketch", use_cache=False)
        assert service.metrics()["requests"]["summaries_persisted"] == 1
        stored = sum(
            os.path.getsize(path + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(path + suffix)
        )
    assert stored <= 2.5 * user_bytes(table)
