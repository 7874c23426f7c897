"""repro — a reproduction of "Fast Cartography for Data Explorers".

Atlas (Sellam & Kersten, PVLDB 6(12), 2013) answers database queries with
*data maps*: small ranked sets of conjunctive queries, each describing an
interesting region of the data.  This package implements the full system:

* :mod:`repro.dataset` — the columnar DBMS substrate,
* :mod:`repro.query` — the conjunctive query language,
* :mod:`repro.sketch` — one-pass approximation substrate (Section 5.1),
* :mod:`repro.core` — the map-generation framework (Section 3),
* :mod:`repro.engine` — the composable pipeline, strategy registries,
  shared execution context, and the fluent facade,
* :mod:`repro.baselines` — comparison algorithms (Section 6),
* :mod:`repro.datagen` — synthetic datasets for the experiments,
* :mod:`repro.frontend` — text rendering + interactive driver (Figure 6),
* :mod:`repro.evaluation` — experiment harness and quality metrics.

Quickstart — the fluent facade::

    from repro import explorer
    from repro.datagen import census_table

    table = census_table(n_rows=10_000, seed=0)
    maps = explorer(table).cut("median").explore("Age: [17, 90]")
    print(maps.describe())

Batches share one context, so repeated statistics are computed once::

    results = explorer(table).sample(5_000).explore_many(
        ["Age: [17, 90]", "Sex: ('Female')", None]  # None = whole table
    )

Custom strategies plug into the registries::

    import numpy as np
    from repro import register_numeric_cut

    @register_numeric_cut("tertile")
    def tertile(values, splits, config):
        return [float(q) for q in np.quantile(values, [1 / 3, 2 / 3])]

    maps = explorer(table).cut("tertile").explore()

:class:`Explorer` is the one in-process engine: it owns the live table
and a registry of execution contexts.  :class:`ExplorationSession`
(drill-downs, ``explorer(table).session()``) and
:class:`AnytimeExplorer` (``explorer(table).anytime()``) are policies
over an explorer; :class:`SqlAtlas` drives the same
:class:`~repro.engine.Pipeline`.
"""

from repro.core import (
    AnytimeExplorer,
    AtlasConfig,
    CategoricalCutStrategy,
    DataMap,
    ExplorationSession,
    Fidelity,
    Parallelism,
    Linkage,
    MapSet,
    MergeMethod,
    NumericCutStrategy,
    cut,
)
from repro.dataset import Catalog, Table, read_csv
from repro.db import SqlAtlas, SqlConnection
from repro.engine import (
    ExecutionContext,
    Explorer,
    Pipeline,
    Stage,
    explorer,
    register_categorical_cut,
    register_linkage,
    register_merge,
    register_numeric_cut,
)
from repro.errors import AtlasError
from repro.service import ExplorationService, ServiceClient, serve
from repro.query import (
    AnyPredicate,
    ConjunctiveQuery,
    RangePredicate,
    SetPredicate,
    parse_query,
)

__version__ = "1.1.0"

__all__ = [
    "AnyPredicate",
    "AnytimeExplorer",
    "AtlasConfig",
    "Fidelity",
    "Parallelism",
    "AtlasError",
    "Catalog",
    "CategoricalCutStrategy",
    "ConjunctiveQuery",
    "DataMap",
    "ExecutionContext",
    "ExplorationService",
    "ExplorationSession",
    "Explorer",
    "Linkage",
    "MapSet",
    "MergeMethod",
    "NumericCutStrategy",
    "Pipeline",
    "RangePredicate",
    "ServiceClient",
    "SetPredicate",
    "SqlAtlas",
    "SqlConnection",
    "Stage",
    "Table",
    "__version__",
    "cut",
    "explorer",
    "parse_query",
    "read_csv",
    "register_categorical_cut",
    "register_linkage",
    "register_merge",
    "register_numeric_cut",
    "serve",
]
