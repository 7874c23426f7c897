"""Unit tests for AtlasConfig validation and paper defaults."""

import pytest

from repro.core.config import (
    PAPER_DEFAULTS,
    AtlasConfig,
    CategoricalCutStrategy,
    Linkage,
    MergeMethod,
    NumericCutStrategy,
)
from repro.errors import ConfigError


class TestPaperDefaults:
    def test_convenience_constants(self):
        # Section 2: <= 8 regions, < 3 predicates target; Section 3.1: 2 splits.
        assert PAPER_DEFAULTS.max_regions == 8
        assert PAPER_DEFAULTS.max_predicates == 3
        assert PAPER_DEFAULTS.n_splits == 2

    def test_paper_strategies(self):
        # Section 5.1: "currently, we use the median"; 3.2 favours SLINK.
        assert PAPER_DEFAULTS.numeric_strategy is NumericCutStrategy.MEDIAN
        assert PAPER_DEFAULTS.linkage is Linkage.SINGLE

    def test_abstract_map_budget(self):
        assert PAPER_DEFAULTS.max_maps == 12


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_regions", 1),
            ("max_predicates", 0),
            ("n_splits", 1),
            ("max_maps", 0),
            ("dependence_threshold", 1.5),
            ("dependence_threshold", -0.1),
            ("min_region_cover", 1.0),
            ("sample_size", 0),
        ],
    )
    def test_out_of_domain_rejected(self, field, value):
        with pytest.raises(ConfigError):
            AtlasConfig(**{field: value})

    def test_n_splits_cannot_exceed_max_regions(self):
        with pytest.raises(ConfigError, match="n_splits"):
            AtlasConfig(n_splits=9, max_regions=8)

    def test_replace(self):
        config = AtlasConfig().replace(
            merge_method=MergeMethod.COMPOSITION,
            categorical_strategy=CategoricalCutStrategy.ALPHABETIC,
        )
        assert config.merge_method is MergeMethod.COMPOSITION
        assert config.max_regions == 8  # untouched

    def test_replace_validates(self):
        with pytest.raises(ConfigError):
            AtlasConfig().replace(max_regions=0)

    def test_sketch_epsilon_is_not_a_field(self):
        # fidelity.epsilon is the one rank-error knob at every fidelity.
        with pytest.raises(ConfigError, match="sketch_epsilon"):
            AtlasConfig.from_dict({"sketch_epsilon": 0.01})
        with pytest.raises(ConfigError, match="sketch_epsilon"):
            AtlasConfig().replace(sketch_epsilon=0.01)
        assert "sketch_epsilon" not in AtlasConfig().to_dict()

        from repro.datagen import census_table
        from repro.engine.facade import explorer

        with pytest.raises(ConfigError, match="sketch_epsilon"):
            explorer(census_table(n_rows=10, seed=0)).configure(
                sketch_epsilon=0.01
            )

    def test_frozen(self):
        with pytest.raises(Exception):
            AtlasConfig().max_regions = 99
