"""E1 — latency scaling (claim C6: quasi-real-time operation).

Measures full-pipeline wall time against (a) table size from 1k to 300k
rows, (b) attribute count, and (c) the Section-5.1 sampling lever.
Expected shape: roughly linear in rows, super-linear in attributes (the
pairwise distance matrix), and flat once ``sample_size`` caps the scan.
Sub-second latency at 100k rows is the quasi-real-time bar.
"""


from repro.engine import explorer
from repro.core.config import AtlasConfig
from repro.datagen import census_table, subspace_dataset
from repro.evaluation.harness import ResultTable, Timer
from repro.evaluation.workloads import figure2_query
from repro.datagen.subspace import SubspaceSpec

ROW_COUNTS = (1_000, 10_000, 100_000, 300_000)
ATTRIBUTE_COUNTS = (2, 4, 8, 12)
INTERACTIVE_BUDGET_S = 1.0


def test_latency_vs_rows(save_report, benchmark):
    report = ResultTable(
        ["rows", "pipeline_s", "candidates_s", "clustering_s", "merging_s"],
        title="E1a: pipeline latency vs table size (census query)",
    )
    last = None
    for n_rows in ROW_COUNTS:
        table = census_table(n_rows=n_rows, seed=0)
        engine = explorer(table)
        with Timer() as timer:
            result = engine.explore(figure2_query())
        last = (engine, result)
        report.add_row(
            [
                n_rows,
                timer.elapsed,
                result.timings.candidates,
                result.timings.clustering,
                result.timings.merging,
            ]
        )
        if n_rows == 100_000:
            assert timer.elapsed < INTERACTIVE_BUDGET_S, (
                "quasi-real-time bar missed at 100k rows"
            )
    save_report("latency_vs_rows", report.render())

    engine, __ = last
    benchmark.pedantic(
        lambda: engine.explore(figure2_query()), rounds=3, iterations=1
    )


def _wide_table(n_attributes: int, n_rows: int = 20_000):
    specs = tuple(
        SubspaceSpec(
            attributes=(f"a{i}",),
            centers=((float(10 * i),), (float(10 * i + 100),)),
            spread=3.0,
        )
        for i in range(n_attributes)
    )
    return subspace_dataset(
        n_rows=n_rows, specs=specs, n_noise_attributes=0, seed=0
    ).table


def test_latency_vs_attributes(save_report, benchmark):
    report = ResultTable(
        ["attributes", "pipeline_s", "clustering_s"],
        title="E1b: pipeline latency vs attribute count (20k rows)",
    )
    times = {}
    for n_attributes in ATTRIBUTE_COUNTS:
        table = _wide_table(n_attributes)
        engine = explorer(table)
        with Timer() as timer:
            result = engine.explore()
        times[n_attributes] = timer.elapsed
        report.add_row(
            [n_attributes, timer.elapsed, result.timings.clustering]
        )
    save_report("latency_vs_attributes", report.render())
    # more candidate maps => more pairwise work; must grow monotonically
    assert times[12] > times[2]

    table = _wide_table(8)
    engine = explorer(table)
    benchmark.pedantic(engine.explore, rounds=3, iterations=1)


def test_latency_sampling_lever(save_report, benchmark):
    table = census_table(n_rows=300_000, seed=0)
    report = ResultTable(
        ["sample_size", "pipeline_s", "top map"],
        title="E1c: the Section-5.1 sampling lever (300k-row table)",
    )
    reference = explorer(table).explore(figure2_query())
    for sample in (None, 50_000, 10_000, 2_000):
        config = AtlasConfig(sample_size=sample)
        engine = explorer(table, config)
        with Timer() as timer:
            result = engine.explore(figure2_query())
        report.add_row(
            [
                "full" if sample is None else sample,
                timer.elapsed,
                result.best.label,
            ]
        )
        # accuracy traded for speed — but the top map must not change
        assert set(result.best.attributes) == set(reference.best.attributes)
    save_report("latency_sampling", report.render())

    engine = explorer(table, AtlasConfig(sample_size=10_000))
    benchmark.pedantic(
        lambda: engine.explore(figure2_query()), rounds=3, iterations=1
    )
