"""Documentation consistency: the experiment index stays in sync.

DESIGN.md promises an experiment index and EXPERIMENTS.md a paper-vs-
measured record; this test keeps both honest against the actual
benchmark files, so adding a bench without documenting it (or vice
versa) fails the suite.
"""

from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _bench_files() -> list[str]:
    return sorted(
        path.name for path in (REPO / "benchmarks").glob("bench_*.py")
    )


class TestExperimentIndex:
    def test_every_bench_in_design(self):
        design = (REPO / "DESIGN.md").read_text()
        for name in _bench_files():
            assert name in design, f"{name} missing from DESIGN.md index"

    def test_every_bench_in_experiments(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for name in _bench_files():
            assert name in experiments, (
                f"{name} missing from EXPERIMENTS.md"
            )

    def test_design_mentions_all_packages(self):
        design = (REPO / "DESIGN.md").read_text()
        packages = sorted(
            path.name
            for path in (REPO / "src" / "repro").iterdir()
            if path.is_dir() and (path / "__init__.py").exists()
        )
        for package in packages:
            assert f"repro.{package}" in design or f"{package}/" in design, (
                f"package {package!r} undocumented in DESIGN.md"
            )

    def test_examples_match_readme(self):
        readme = (REPO / "README.md").read_text()
        assert "examples/" in readme
        example_files = list((REPO / "examples").glob("*.py"))
        assert len(example_files) >= 3  # the deliverable floor

    def test_tutorial_exists_and_runs_on_real_api(self):
        tutorial = (REPO / "docs" / "TUTORIAL.md").read_text()
        # every imported symbol in the tutorial must exist
        import repro
        import repro.core.anticipate
        import repro.datagen

        for symbol in ("explorer", "AnytimeExplorer", "SqlAtlas", "read_csv"):
            assert symbol in tutorial
            assert hasattr(repro, symbol)
