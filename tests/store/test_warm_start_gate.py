"""E24's gate: a warm start answers exactly as the cold boot did.

A cold service registers the document table with ``persist=True`` and
answers two mixed numeric+text queries (persisting the sketch summary);
a new service over the same store file must adopt that summary and
answer bit-identically.  Only behaviour is checked: the restart's wall
clock is the ``warm_restart`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

from repro.core.config import AtlasConfig, Fidelity
from repro.evaluation.metrics import map_set_fingerprint, ranked_map_agreement
from repro.service import ExplorationService

TABLE = "support_tickets"
#: Mixed numeric + text queries (a token match and a substring match).
QUERIES = (
    "hours_open: [0, 48]\ntitle: match 'disk'",
    "severity: {'critical', 'high'}\ntitle: contains 'outage'",
)
#: A 30k-row table, sampled at a 3k-row budget.
SPEC = {"generator": TABLE, "n_rows": 30_000, "seed": 0, "n_entities": 300}
CONFIG = AtlasConfig(fidelity=Fidelity.sketch(budget_rows=3_000), seed=0)


def boot_and_explore(path: str, spec: dict | None):
    with ExplorationService(max_workers=1, store=path) as service:
        if spec is not None:
            service.register(spec, persist=True)
        responses = [
            service.explore(TABLE, query, config=CONFIG, use_cache=False)
            for query in QUERIES
        ]
        return responses, service.metrics(), service.catalog.resolve(TABLE)


def test_e24_warm_start_gate(tmp_path):
    path = str(tmp_path / "atlas.db")
    cold, cold_metrics, table = boot_and_explore(path, SPEC)
    warm, warm_metrics, _ = boot_and_explore(path, None)
    for a, b in zip(cold, warm):
        assert map_set_fingerprint(a.map_set) == map_set_fingerprint(b.map_set)
        assert ranked_map_agreement(a.map_set, b.map_set, table, top_k=3) == 1.0
    assert cold_metrics["requests"]["summaries_persisted"] >= 1
    assert warm_metrics["requests"]["warm_starts"] >= 1
