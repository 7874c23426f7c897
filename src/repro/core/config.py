"""Atlas engine configuration.

Every "knob" the paper names gets a field here, with the paper's value as
the default:

* ``max_regions = 8`` — "a map with more than 8 regions is hard to read"
  (Section 2).
* ``max_predicates = 3`` — "queries should be simple, with very few
  predicates (we target less than 3)" (Section 2); interpreted as at most
  3 restrictive predicates per region query.
* ``n_splits = 2`` — "we choose to restrict the number of partitions per
  attribute to two" (Section 3.1).
* ``max_maps = 12`` — a data map answer is "a small set of database
  queries (less than a dozen)" (abstract); we cap the ranked result list.

The open parameters the paper flags are exposed too: the cutting
strategies (Section 3.1), the linkage (Section 3.2), the dependence
threshold ("it is not yet clear how to set this parameter", Section 3.2),
and the merge method (Section 3.3 proposes both product and composition).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.errors import ConfigError


class NumericCutStrategy(enum.Enum):
    """How CUT splits an ordinal attribute (Section 3.1 / 5.1)."""

    MEDIAN = "median"          # equi-depth; "currently, we use the median"
    EQUIWIDTH = "equiwidth"    # "fast and intuitive"
    TWO_MEANS = "twomeans"     # "intra-cluster distance ... as in K-means"
    SKETCH = "sketch"          # one-pass GK approximate quantiles (§5.1)


class CategoricalCutStrategy(enum.Enum):
    """How CUT splits a categorical attribute (Section 3.1)."""

    FREQUENCY = "frequency"    # "use the frequency of occurrence of each value"
    ALPHABETIC = "alphabetic"  # "a simple alphabetic order"
    USER_ORDER = "user_order"  # "the order in which the user gives them"


class MergeMethod(enum.Enum):
    """How candidates of one cluster are combined (Section 3.3)."""

    PRODUCT = "product"
    COMPOSITION = "composition"


class Linkage(enum.Enum):
    """Agglomeration rule for map clustering (Section 3.2 favours SLINK)."""

    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"


@dataclasses.dataclass(frozen=True)
class Fidelity:
    """Execution fidelity: exact statistics, or a bounded sketch budget.

    The paper's interactivity requirement (Sections 1/2/5.1) argues for
    answering from approximate statistics when exact full-table scans
    are too slow.  A ``Fidelity`` names the trade-off in one value the
    whole system threads end to end — engine, core scoring, service,
    REPL:

    * ``exact`` — every statistic is computed from full-table masks
      (the historical behavior).
    * ``sketch`` — statistics are answered by a
      :class:`~repro.engine.backends.SketchBackend` from a bounded
      reservoir sample of ``budget_rows`` rows plus one-pass
      frequency/quantile sketches with rank error ``epsilon``.

    The wire form is a compact spec string (``"exact"``,
    ``"sketch"``, ``"sketch:20000"``, ``"sketch:20000:0.01"``) so it
    stays hashable inside serialized configs and cache keys.
    """

    mode: str = "exact"
    #: Reservoir sample budget (rows) for the sketch backend.
    budget_rows: int = 20_000
    #: Rank-error fraction for the one-pass quantile sketches.
    epsilon: float = 0.005

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "sketch"):
            raise ConfigError(
                f"fidelity mode must be 'exact' or 'sketch', got {self.mode!r}"
            )
        if self.budget_rows < 1:
            raise ConfigError(
                f"fidelity budget_rows must be >= 1, got {self.budget_rows}"
            )
        if not 0.0 < self.epsilon < 0.5:
            raise ConfigError(
                f"fidelity epsilon must be in (0, 0.5), got {self.epsilon}"
            )

    @property
    def is_exact(self) -> bool:
        """True when statistics come from full-table scans."""
        return self.mode == "exact"

    @property
    def is_sketch(self) -> bool:
        """True when statistics come from bounded samples and sketches."""
        return self.mode == "sketch"

    @classmethod
    def exact(cls) -> "Fidelity":
        """Full-fidelity execution (the default)."""
        return cls(mode="exact")

    @classmethod
    def sketch(
        cls, budget_rows: int = 20_000, epsilon: float = 0.005
    ) -> "Fidelity":
        """Approximate execution under a row/epsilon budget."""
        return cls(mode="sketch", budget_rows=budget_rows, epsilon=epsilon)

    def spec(self) -> str:
        """Compact, parseable wire form (inverse of :meth:`parse`).

        The epsilon uses ``repr`` — the shortest digits that parse back
        to the same float — so ``parse(spec())`` is an exact round trip
        and the serde contract of :class:`AtlasConfig` holds for any
        epsilon.
        """
        if self.is_exact:
            return "exact"
        return f"sketch:{self.budget_rows}:{self.epsilon!r}"

    @classmethod
    def parse(cls, text: str) -> "Fidelity":
        """Build a fidelity from a spec string.

        Accepted shapes: ``"exact"``, ``"sketch"``,
        ``"sketch:<rows>"``, ``"sketch:<rows>:<epsilon>"``.
        """
        parts = text.strip().split(":")
        mode = parts[0].strip().lower()
        if mode == "exact":
            if len(parts) > 1:
                raise ConfigError(
                    f"'exact' fidelity takes no arguments, got {text!r}"
                )
            return cls.exact()
        if mode != "sketch":
            raise ConfigError(
                f"unknown fidelity {text!r}; expected 'exact' or "
                "'sketch[:rows[:epsilon]]'"
            )
        if len(parts) > 3:
            raise ConfigError(f"malformed fidelity spec {text!r}")
        try:
            budget = int(parts[1]) if len(parts) > 1 and parts[1] else 20_000
            epsilon = float(parts[2]) if len(parts) > 2 and parts[2] else 0.005
        except ValueError as exc:
            raise ConfigError(f"malformed fidelity spec {text!r}: {exc}") from exc
        return cls.sketch(budget_rows=budget, epsilon=epsilon)


#: Row-range shards a parallel execution partitions a table into.  A
#: *fixed* default — independent of the worker count — because shard
#: boundaries are part of the statistical recipe (per-shard RNG streams
#: and merge order), while workers are pure execution: the same config
#: must produce bit-identical answers on a laptop and a 64-core server.
DEFAULT_SHARDS = 8


@dataclasses.dataclass(frozen=True)
class Parallelism:
    """Multi-core execution: worker processes over row-range shards.

    The scan/merge split of :mod:`repro.engine.parallel` in one value
    threaded end to end (engine, facade, service, REPL), like
    :class:`Fidelity`:

    * ``workers`` — processes building per-shard statistics
      concurrently; ``"auto"`` resolves to ``os.cpu_count()`` at run
      time.  Workers never affect results, only wall-clock.
    * ``shards`` — row-range partitions of the table.  Shards *do*
      affect the statistics (each shard draws its own deterministic
      RNG stream and the per-shard summaries are merged in shard
      order), so they default to a fixed machine-independent count.

    The wire form is a compact spec string (``"serial"``,
    ``"parallel"``, ``"parallel:4"``, ``"parallel:auto:16"``,
    ``"cluster:2"``) so it stays hashable inside serialized configs and
    cache keys.

    ``mode`` distinguishes *where* the scan runs — ``"local"`` worker
    processes or ``"cluster"`` shard servers (:mod:`repro.cluster`) —
    without touching the statistical recipe: shard boundaries, per-shard
    RNG streams, and merge order are identical in both modes, so a
    cluster run is bit-identical to a local run with the same shard
    count.  In cluster mode ``workers`` counts shard *servers* the
    coordinator fans out to (``"auto"`` = every attached server).
    """

    #: Worker processes (``>= 1``) or ``"auto"`` (= ``os.cpu_count()``).
    #: In cluster mode: shard servers (``"auto"`` = all attached).
    workers: int | str = 1
    #: Row-range shards; ``1`` is the unsharded legacy path.
    shards: int = 1
    #: Execution venue: ``"local"`` worker processes, or ``"cluster"``
    #: shard servers behind a :class:`repro.cluster.ClusterCoordinator`.
    mode: str = "local"

    def __post_init__(self) -> None:
        if isinstance(self.workers, str):
            if self.workers != "auto":
                raise ConfigError(
                    f"parallelism workers must be an int >= 1 or 'auto', "
                    f"got {self.workers!r}"
                )
        elif not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(
                f"parallelism workers must be >= 1, got {self.workers!r}"
            )
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ConfigError(
                f"parallelism shards must be >= 1, got {self.shards!r}"
            )
        if self.mode not in ("local", "cluster"):
            raise ConfigError(
                f"parallelism mode must be 'local' or 'cluster', "
                f"got {self.mode!r}"
            )
        if self.mode == "cluster" and self.shards < 2:
            raise ConfigError(
                "cluster parallelism needs shards >= 2 (the scan/merge "
                f"split is what gets distributed), got {self.shards}"
            )

    @property
    def is_parallel(self) -> bool:
        """True when execution is sharded (the scan/merge split runs)."""
        return self.shards > 1

    @property
    def is_cluster(self) -> bool:
        """True when the scan fans out to shard servers over HTTP."""
        return self.mode == "cluster"

    @property
    def resolved_workers(self) -> int:
        """The concrete worker count (``"auto"`` resolved on this host)."""
        import os

        if self.workers == "auto":
            return max(1, os.cpu_count() or 1)
        return int(self.workers)

    @classmethod
    def serial(cls) -> "Parallelism":
        """Single-core, unsharded execution (the default)."""
        return cls(workers=1, shards=1)

    @classmethod
    def of(
        cls, workers: int | str = "auto", shards: int | None = None
    ) -> "Parallelism":
        """Sharded execution with ``workers`` processes.

        ``shards`` defaults to :data:`DEFAULT_SHARDS` — *not* to the
        worker count — so answers are bit-identical for any ``workers``.
        """
        return cls(
            workers=workers,
            shards=DEFAULT_SHARDS if shards is None else shards,
        )

    @classmethod
    def cluster(
        cls, servers: int | str = "auto", shards: int | None = None
    ) -> "Parallelism":
        """Scatter/gather over ``servers`` shard servers.

        ``shards`` defaults to :data:`DEFAULT_SHARDS`, exactly as in
        :meth:`of` — the shard layout (and therefore every answer) is
        the same whether the scan runs on local workers or on a
        cluster.
        """
        return cls(
            workers=servers,
            shards=DEFAULT_SHARDS if shards is None else shards,
            mode="cluster",
        )

    def spec(self) -> str:
        """Compact, parseable wire form (inverse of :meth:`parse`)."""
        if self.is_cluster:
            return f"cluster:{self.workers}:{self.shards}"
        if not self.is_parallel and self.workers == 1:
            return "serial"
        return f"parallel:{self.workers}:{self.shards}"

    @classmethod
    def parse(cls, text: str) -> "Parallelism":
        """Build a parallelism from a spec string.

        Accepted shapes: ``"serial"``, ``"parallel"``,
        ``"parallel:<workers|auto>"``,
        ``"parallel:<workers|auto>:<shards>"``, and the same tail
        shapes under ``"cluster"`` (where the middle component counts
        shard servers instead of worker processes).
        """
        parts = text.strip().split(":")
        mode = parts[0].strip().lower()
        if mode == "serial":
            if len(parts) > 1:
                raise ConfigError(
                    f"'serial' parallelism takes no arguments, got {text!r}"
                )
            return cls.serial()
        if mode not in ("parallel", "cluster"):
            raise ConfigError(
                f"unknown parallelism {text!r}; expected 'serial', "
                "'parallel[:workers[:shards]]', or "
                "'cluster[:servers[:shards]]'"
            )
        if len(parts) > 3:
            raise ConfigError(f"malformed parallelism spec {text!r}")
        workers: int | str = "auto"
        if len(parts) > 1 and parts[1]:
            raw = parts[1].strip().lower()
            if raw == "auto":
                workers = "auto"
            else:
                try:
                    workers = int(raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"malformed parallelism spec {text!r}: {exc}"
                    ) from exc
        shards = DEFAULT_SHARDS
        if len(parts) > 2 and parts[2]:
            try:
                shards = int(parts[2])
            except ValueError as exc:
                raise ConfigError(
                    f"malformed parallelism spec {text!r}: {exc}"
                ) from exc
        if mode == "cluster":
            return cls(workers=workers, shards=shards, mode="cluster")
        return cls(workers=workers, shards=shards)


def _coerce_fidelity(value: object) -> Fidelity:
    """Normalize the ``fidelity`` config field to a :class:`Fidelity`."""
    if isinstance(value, Fidelity):
        return value
    if isinstance(value, str):
        return Fidelity.parse(value)
    raise ConfigError(
        f"expected a Fidelity or spec string, got {type(value).__name__}"
    )


def _coerce_parallelism(value: object) -> Parallelism:
    """Normalize the ``parallelism`` config field to a :class:`Parallelism`.

    Accepts a :class:`Parallelism`, a spec string, or a bare worker
    count (``4`` ⇒ 4 workers over the default shard layout; ``1``
    keeps the default shard layout too, so a worker-count sweep
    compares bit-identical statistics).
    """
    if isinstance(value, Parallelism):
        return value
    if isinstance(value, bool):
        raise ConfigError(
            "expected a Parallelism, spec string, or worker count, got a bool"
        )
    if isinstance(value, int):
        return Parallelism.of(workers=value)
    if isinstance(value, str):
        return Parallelism.parse(value)
    raise ConfigError(
        f"expected a Parallelism, spec string, or worker count, "
        f"got {type(value).__name__}"
    )


def _coerce_strategy(value: object, enum_cls: type[enum.Enum]) -> object:
    """Normalize a strategy field to its enum member when one matches.

    Strings naming an enum *value* (``"median"``) become the member;
    any other string is kept verbatim — it is a key into the
    :mod:`repro.engine.registry` registries, where custom strategies
    live.  Only values are matched, never member names: a custom
    strategy registered as ``"TWO_MEANS"`` must not be silently
    shadowed by ``NumericCutStrategy.TWO_MEANS``.  Anything else is a
    configuration error.
    """
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls(value)
        except ValueError:
            return value
    raise ConfigError(
        f"expected a {enum_cls.__name__} or strategy name, "
        f"got {type(value).__name__}"
    )


#: Strategy fields and the enum each one aliases.
_STRATEGY_FIELDS: dict[str, type[enum.Enum]] = {
    "numeric_strategy": NumericCutStrategy,
    "categorical_strategy": CategoricalCutStrategy,
    "merge_method": MergeMethod,
    "linkage": Linkage,
}


@dataclasses.dataclass(frozen=True)
class AtlasConfig:
    """All tunables of the map-generation pipeline.

    Strategy fields accept an enum member or a string registry key
    (:mod:`repro.engine.registry`); strings matching a built-in are
    normalized to the enum, custom names pass through untouched.
    """

    max_regions: int = 8
    max_predicates: int = 3
    n_splits: int = 2
    max_maps: int = 12
    numeric_strategy: NumericCutStrategy | str = NumericCutStrategy.MEDIAN
    categorical_strategy: CategoricalCutStrategy | str = (
        CategoricalCutStrategy.FREQUENCY
    )
    merge_method: MergeMethod | str = MergeMethod.PRODUCT
    linkage: Linkage | str = Linkage.SINGLE
    #: Two maps cluster together when their Rajski distance
    #: (``VI / H(joint)``, 1 ⇔ independent) falls below this value, i.e.
    #: when they share at least ``1 − threshold`` of their joint
    #: information.  The paper leaves this parameter open (§3.2).
    dependence_threshold: float = 0.95
    #: Regions whose cover falls below this fraction are dropped from
    #: merged maps (0 keeps everything with non-zero cover).
    min_region_cover: float = 0.0
    #: When set, the pipeline runs on a uniform sample of this many rows
    #: (the Section-5.1 "sampling and refinement" speed lever).
    sample_size: int | None = None
    #: ε for the sketch cutting strategy.
    sketch_epsilon: float = 0.005
    #: Execution fidelity: ``exact`` full-table statistics, or a
    #: ``sketch`` row/epsilon budget answered by the sketch backend.
    #: Accepts a :class:`Fidelity` or a spec string (``"sketch:20000"``).
    fidelity: Fidelity | str = Fidelity()
    #: Multi-core execution: worker processes over row-range shards
    #: (:mod:`repro.engine.parallel`), or shard servers over the same
    #: shard layout (:mod:`repro.cluster`).  Accepts a
    #: :class:`Parallelism`, a spec string (``"parallel:4"``,
    #: ``"cluster:2"``), or a bare worker count.
    #: Applies to sketch-fidelity statistics; exact execution ignores
    #: it (exact masks are row-backed and cannot be shard-merged).
    parallelism: Parallelism | str | int = Parallelism()
    #: Random seed for sampling and tie-breaking randomness.
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name, enum_cls in _STRATEGY_FIELDS.items():
            normalized = _coerce_strategy(getattr(self, field_name), enum_cls)
            object.__setattr__(self, field_name, normalized)
        object.__setattr__(self, "fidelity", _coerce_fidelity(self.fidelity))
        object.__setattr__(
            self, "parallelism", _coerce_parallelism(self.parallelism)
        )
        if self.max_regions < 2:
            raise ConfigError(f"max_regions must be >= 2, got {self.max_regions}")
        if self.max_predicates < 1:
            raise ConfigError(
                f"max_predicates must be >= 1, got {self.max_predicates}"
            )
        if self.n_splits < 2:
            raise ConfigError(f"n_splits must be >= 2, got {self.n_splits}")
        if self.n_splits > self.max_regions:
            raise ConfigError(
                f"n_splits ({self.n_splits}) cannot exceed "
                f"max_regions ({self.max_regions})"
            )
        if self.max_maps < 1:
            raise ConfigError(f"max_maps must be >= 1, got {self.max_maps}")
        if not 0.0 <= self.dependence_threshold <= 1.0:
            raise ConfigError(
                "dependence_threshold must be in [0, 1], "
                f"got {self.dependence_threshold}"
            )
        if not 0.0 <= self.min_region_cover < 1.0:
            raise ConfigError(
                f"min_region_cover must be in [0, 1), got {self.min_region_cover}"
            )
        if self.sample_size is not None and self.sample_size < 1:
            raise ConfigError(
                f"sample_size must be >= 1 or None, got {self.sample_size}"
            )
        if not 0.0 < self.sketch_epsilon < 0.5:
            raise ConfigError(
                f"sketch_epsilon must be in (0, 0.5), got {self.sketch_epsilon}"
            )

    def replace(self, **changes: object) -> "AtlasConfig":
        """Return a copy with the given fields changed."""
        unknown = set(changes) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(
                f"unknown config fields: {', '.join(sorted(map(str, unknown)))}"
            )
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON form: enums serialized by their string values.

        The inverse of :meth:`from_dict`; lets a configuration travel
        over the SQL gateway and future service boundaries.
        """
        out: dict[str, object] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, enum.Enum):
                value = value.value
            elif isinstance(value, (Fidelity, Parallelism)):
                value = value.spec()
            out[field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "AtlasConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigError` (a silently dropped
        knob is a misconfigured engine); strategy strings are coerced
        back to enum members by ``__post_init__``.
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - field_names
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(map(str, unknown)))}; "
                f"known: {', '.join(sorted(field_names))}"
            )
        return cls(**data)  # type: ignore[arg-type]


#: The configuration the paper describes verbatim.
PAPER_DEFAULTS = AtlasConfig()
