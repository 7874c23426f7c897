"""Anytime map generation (paper Section 5.1, "Sampling and refinement").

The paper sketches "an anytime variation of our framework: the quality of
the results would improve as computation time increases.  It would
continually take small samples of the data and update a set of
approximate results.  This way, the user would have instant results and
the system could interrupt the exploration after a timeout."

:class:`AnytimeExplorer` implements exactly that contract with
*progressive fidelity escalation*:

* early ticks run the full pipeline at **sketch fidelity** — a
  :class:`~repro.engine.backends.SketchBackend` answers every statistic
  from a bounded reservoir whose budget grows geometrically, so the
  first answer arrives in bounded time regardless of table size;
* the final tick runs at the configured **target fidelity** (exact by
  default), refining the approximate answer into the one a plain
  ``explore()`` would return;
* reservoir budgets are *nested* (each backend samples the first ``k``
  entries of one deterministic per-``(seed, table)`` permutation), so
  anytime results are comparable across ticks;
* a *stability* score — 1 − normalized VI between the current and the
  previous top map, measured on the rows the current tick scanned —
  quantifies result convergence, so callers can stop on stability, on
  timeout, or on escalation completing (whichever comes first);
* ticks share builds: each asks its explorer's context registry.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.core.config import AtlasConfig, Fidelity
from repro.core.distance import map_nvi
from repro.engine.context import ExecutionContext
from repro.engine.pipeline import MapSet
from repro.errors import MapError
from repro.query.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.facade import Explorer


@dataclasses.dataclass(frozen=True)
class AnytimeResult:
    """One published snapshot of the anytime computation."""

    tick: int
    sample_size: int
    elapsed: float
    map_set: MapSet
    #: 1 − nVI(previous top map, current top map) on the current sample;
    #: 1.0 when the top map did not change, 0.0 on the first tick.
    stability: float
    #: Fidelity spec this snapshot was computed at (provenance).
    fidelity: str = "exact"

    @property
    def converged(self) -> bool:
        """True when the top map was identical to the previous tick's."""
        return self.stability >= 0.999


class AnytimeExplorer:
    """Anytime policy over an explorer.

    Parameters
    ----------
    explorer:
        The :class:`~repro.engine.facade.Explorer` whose live table,
        pipeline and contexts every run uses.  Its config's
        ``sample_size`` is ignored (the growing budget replaces it) and
        its ``fidelity`` is the escalation *target*: the final tick runs
        at it (exact by default; on the explorer's own context unless
        its config sets a ``sample_size``), earlier ticks at growing
        sketch budgets.
    query:
        The query being explored (None = whole table).
    initial_size, growth_factor:
        Budget schedule.
    """

    def __init__(
        self,
        explorer: "Explorer",
        query: ConjunctiveQuery | None = None,
        initial_size: int = 1000,
        growth_factor: float = 2.0,
    ):
        if initial_size < 1:
            raise MapError(f"initial_size must be >= 1, got {initial_size}")
        if growth_factor <= 1.0:
            raise MapError(f"growth_factor must be > 1, got {growth_factor}")
        self._explorer = explorer
        self._query = query or ConjunctiveQuery()
        self._initial_size = int(initial_size)
        self._growth_factor = float(growth_factor)

    def _schedule(self, n_rows: int) -> Iterator[AtlasConfig]:
        """Yield each tick's config over ``n_rows`` rows.

        Grows a sketch budget geometrically on the full table and
        finishes at the configured target fidelity; nested reservoirs
        make consecutive answers comparable.
        """
        config = self._explorer.config.replace(sample_size=None)
        target = config.fidelity
        if target.is_sketch:
            final_budget = min(target.budget_rows, n_rows)
            epsilon = target.epsilon
        else:
            final_budget = n_rows
            epsilon = Fidelity().epsilon
        budget = min(self._initial_size, final_budget)
        while budget < final_budget:
            sketch = Fidelity.sketch(budget_rows=budget, epsilon=epsilon)
            yield config.replace(fidelity=sketch)
            budget = min(
                max(budget + 1, int(budget * self._growth_factor)),
                final_budget,
            )
        yield config

    def ticks(self) -> Iterator[AnytimeResult]:
        """Yield snapshots of increasing fidelity until escalation ends.

        The caller is free to stop consuming at any point — that is the
        anytime contract.  The final tick runs at the configured target
        fidelity (exact on the full table by default).  A run keeps
        the version it started at (snapshots are only comparable on the
        same rows), so one an append overtakes finishes on unregistered
        contexts over its own table.
        """
        explorer = self._explorer
        table = explorer.table
        started = time.perf_counter()
        previous_top = None
        for tick, config in enumerate(self._schedule(table.n_rows)):
            if explorer.table.version == table.version:
                context = explorer.contexts.context_for(table.name, table, config)
            else:
                context = ExecutionContext(table, config)
            map_set = explorer.pipeline.run(self._query, context)
            # Stability is measured on the rows this tick actually
            # scanned — the backend's effective table.
            measured = context.stats().effective_table

            if previous_top is None or not map_set.ranked:
                stability = 0.0
            else:
                stability = 1.0 - map_nvi(previous_top, map_set.best, measured)
            if map_set.ranked:
                previous_top = map_set.best

            yield AnytimeResult(
                tick=tick,
                sample_size=map_set.n_rows_used,
                elapsed=time.perf_counter() - started,
                map_set=map_set,
                stability=stability,
                fidelity=map_set.fidelity,
            )

    def run(
        self,
        timeout: float | None = None,
        stability_target: float | None = None,
    ) -> AnytimeResult:
        """Consume ticks until timeout / stability / escalation ends.

        Returns the last published snapshot.  ``timeout`` is checked
        *between* ticks (a tick is never aborted mid-flight), matching
        the paper's "interrupt the exploration after a timeout".
        """
        last: AnytimeResult | None = None
        for result in self.ticks():
            last = result
            if timeout is not None and result.elapsed >= timeout:
                break
            if (
                stability_target is not None
                and result.tick > 0
                and result.stability >= stability_target
            ):
                break
        assert last is not None  # ticks() always yields at least once
        return last
