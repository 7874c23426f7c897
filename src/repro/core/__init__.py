"""Core Atlas machinery: the paper's contribution.

The four-step framework of Section 3 (CUT candidates, VI clustering,
product/composition merging, entropy ranking), the anytime variant of
Section 5.1, and the Figure-1 exploration session and prefetch policy
over the :class:`~repro.engine.facade.Explorer` front door.
"""

from repro.core.anticipate import AnticipativeExplorer, CacheStats
from repro.core.anytime import AnytimeExplorer, AnytimeResult
from repro.core.candidates import candidate_attributes, generate_candidates
from repro.core.clustering import MapClustering, cluster_maps
from repro.core.config import (
    PAPER_DEFAULTS,
    AtlasConfig,
    CategoricalCutStrategy,
    Fidelity,
    Parallelism,
    Linkage,
    MergeMethod,
    NumericCutStrategy,
)
from repro.core.contingency import joint_counts, joint_distribution
from repro.core.cut import balanced_label_groups, cut
from repro.core.datamap import ESCAPE, DataMap
from repro.core.exemplars import random_examples, representative_examples
from repro.core.explain import (
    CategoricalContrast,
    NumericContrast,
    RegionExplanation,
    explain_map,
    explain_region,
)
from repro.core.distance import (
    MapDistanceMatrix,
    distance_matrix,
    map_nvi,
    map_vi,
)
from repro.core.information import (
    entropy,
    entropy_of_counts,
    joint_entropy,
    max_vi,
    mutual_information,
    normalized_mutual_information,
    normalized_vi,
    rajski_distance,
    variation_of_information,
)
from repro.core.linkage import (
    AgglomerationResult,
    MergeStep,
    agglomerate,
    dendrogram,
)
from repro.core.merge import composition, merge_cluster, product
from repro.core.personalize import InterestProfile, personalized_rank
from repro.core.ranking import RankedMap, balance, map_entropy, rank_maps
from repro.core.session import ExplorationSession, SessionStep
from repro.core.validate import (
    ValidationReport,
    Violation,
    validate_map,
    validate_map_set,
)
from repro.engine.pipeline import MapSet, StageTimings

__all__ = [
    "ESCAPE",
    "PAPER_DEFAULTS",
    "AgglomerationResult",
    "AnticipativeExplorer",
    "AnytimeExplorer",
    "AnytimeResult",
    "AtlasConfig",
    "Fidelity",
    "Parallelism",
    "CacheStats",
    "CategoricalContrast",
    "CategoricalCutStrategy",
    "DataMap",
    "ExplorationSession",
    "InterestProfile",
    "Linkage",
    "MapClustering",
    "MapDistanceMatrix",
    "MapSet",
    "MergeMethod",
    "MergeStep",
    "NumericContrast",
    "NumericCutStrategy",
    "RankedMap",
    "RegionExplanation",
    "SessionStep",
    "StageTimings",
    "ValidationReport",
    "Violation",
    "agglomerate",
    "balance",
    "balanced_label_groups",
    "candidate_attributes",
    "cluster_maps",
    "composition",
    "cut",
    "dendrogram",
    "distance_matrix",
    "entropy",
    "entropy_of_counts",
    "explain_map",
    "explain_region",
    "generate_candidates",
    "joint_counts",
    "joint_distribution",
    "joint_entropy",
    "map_entropy",
    "map_nvi",
    "map_vi",
    "max_vi",
    "merge_cluster",
    "mutual_information",
    "personalized_rank",
    "normalized_mutual_information",
    "normalized_vi",
    "product",
    "rajski_distance",
    "random_examples",
    "rank_maps",
    "representative_examples",
    "validate_map",
    "validate_map_set",
    "variation_of_information",
]
