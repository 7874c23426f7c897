"""E13 — dirty-data robustness (Section 5.2: "the raw data may be
imprecise or contain mistakes").

We corrupt the census survey with a realistic mix (missing cells,
numeric outliers, label noise) at increasing rates and measure whether
the Figure-2 structure survives: are {Age, Sex} and {Education, Salary}
still the top groupings, and does Eye color stay alone?

Expected shape: the median cut and the cover-based dependency statistics
are robust estimators, so the structure should survive well past 10 %
corruption and only degrade at extreme rates.
"""


from repro.engine import explorer
from repro.datagen import census_table
from repro.datagen.dirty import corrupt
from repro.evaluation.harness import ResultTable, Timer
from repro.evaluation.workloads import figure2_query

N_ROWS = 20_000
RATES = (0.0, 0.05, 0.1, 0.2, 0.4)


def _structure_found(result) -> tuple[bool, bool, bool]:
    attribute_sets = [set(m.attributes) for m in result.maps]
    age_sex = {"Age", "Sex"} in attribute_sets
    edu_salary = {"Salary", "Education"} in attribute_sets
    eye_alone = all(
        attrs == {"Eye color"}
        for attrs in attribute_sets
        if "Eye color" in attrs
    )
    return age_sex, edu_salary, eye_alone


def test_dirty_data_robustness(save_report, benchmark):
    clean = census_table(n_rows=N_ROWS, seed=0)
    query = figure2_query()

    report = ResultTable(
        ["corruption", "age+sex found", "edu+salary found",
         "eye color alone", "pipeline_s"],
        title=f"E13: structure recovery under corruption (n={N_ROWS})",
    )
    survived_at = {}
    for rate in RATES:
        table = clean if rate == 0.0 else corrupt(clean, rate, rng=1)
        with Timer() as timer:
            result = explorer(table).explore(query)
        age_sex, edu_salary, eye_alone = _structure_found(result)
        survived_at[rate] = age_sex and edu_salary and eye_alone
        report.add_row(
            [rate, age_sex, edu_salary, eye_alone, timer.elapsed]
        )
    save_report("robustness", report.render())

    # clean data must of course work, and the structure must survive
    # at least 10% corruption (robust median cuts + cover statistics).
    assert survived_at[0.0]
    assert survived_at[0.05]
    assert survived_at[0.1]

    dirty = corrupt(clean, 0.1, rng=1)
    engine = explorer(dirty)
    benchmark.pedantic(
        lambda: engine.explore(query), rounds=3, iterations=1
    )
