"""Parallelism through the service: wire field, admission weighting,
per-shard metrics."""

from __future__ import annotations

import pytest

from repro.core.config import AtlasConfig, Parallelism
from repro.engine.pipeline import Pipeline
from repro.engine.stages import default_stages
from repro.service.protocol import (
    AdmissionError,
    ExploreRequest,
    ProtocolError,
)
from repro.service.service import ExplorationService


class TestRequestWire:
    def test_parallelism_round_trips(self):
        request = ExploreRequest(
            table="census", query="Age: [17, 90]", parallelism="parallel:2:4"
        )
        data = request.to_dict()
        assert data["parallelism"] == "parallel:2:4"
        assert ExploreRequest.from_dict(data) == request

    def test_parallelism_omitted_when_unset(self):
        assert "parallelism" not in ExploreRequest(table="census").to_dict()

    def test_non_string_parallelism_rejected(self):
        with pytest.raises(ProtocolError):
            ExploreRequest.from_dict({"table": "census", "parallelism": 4})

    def test_resolve_config_applies_parallelism(self):
        request = ExploreRequest(table="census", parallelism="parallel:2:4")
        resolved = request.resolve_config(AtlasConfig())
        assert resolved.parallelism == Parallelism(workers=2, shards=4)


class TestParallelExplores:
    def test_parallel_request_answers_and_reports_shards(self, census_small):
        service = ExplorationService(max_workers=2, max_queue_depth=8)
        service.register("census", census_small)
        try:
            response = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:1:4",
            )
            assert len(response.map_set.ranked) >= 1
            assert response.map_set.n_rows_used == 1000
            backends = service.metrics()["statistics_cache"]["backends"]
            parallel = backends["sketch"]["parallel"]
            assert parallel["builds"] == 1
            assert parallel["shards"] == 4
            assert len(parallel["shard_seconds"]) == 4
        finally:
            service.close()

    def test_parallel_and_serial_results_are_distinct_cache_entries(
        self, census_small
    ):
        service = ExplorationService(max_workers=2, max_queue_depth=8)
        service.register("census", census_small)
        try:
            serial = service.explore("census", fidelity="sketch:1000")
            parallel = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:1:4",
            )
            # Different statistical recipes → no false cache hit.
            assert not serial.cached and not parallel.cached
            again = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:1:4",
            )
            assert again.cached
        finally:
            service.close()

    def test_worker_counts_share_context_and_cache(self, census_small):
        """Workers never change answers, so requests differing only in
        workers must share one statistics build and one cache entry."""
        service = ExplorationService(max_workers=2, max_queue_depth=8)
        service.register("census", census_small)
        try:
            first = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:1:4",
            )
            assert not first.cached
            other_workers = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:2:4",
            )
            assert other_workers.cached  # same shards → same answer
            backends = service.metrics()["statistics_cache"]["backends"]
            # One sharded build, not one per worker count.
            assert backends["sketch"]["parallel"]["builds"] == 1
        finally:
            service.close()

    @pytest.mark.parametrize(
        "first, second",
        [({"parallelism": "parallel:1:4"}, {"parallelism": "parallel:2:4"})],
        ids=["workers"],
    )
    def test_wall_clock_knobs_share_context_and_cache(
        self, census_small, first, second
    ):
        """The worker count never changes an answer, so it may not
        split a context or a cache entry."""
        with ExplorationService(max_workers=2, max_queue_depth=8) as service:
            service.register("census", census_small)
            cold = service.explore("census", fidelity="sketch:1000", **first)
            again = service.explore("census", fidelity="sketch:1000", **second)
            assert not cold.cached and again.cached
            metrics = service.metrics()
            assert metrics["service"]["contexts"] == 1
            assert metrics["result_cache"]["size"] == 1


class TestAdmissionWeighting:
    """A parallel request that still has to build occupies one in-flight
    slot per scan thread, so a client asking for the whole host cannot
    also stack queue depth."""

    def _gated_service(self, max_workers=2, max_queue_depth=2):
        from tests.service.conftest import GateStage

        gate = GateStage()
        service = ExplorationService(
            max_workers=max_workers,
            max_queue_depth=max_queue_depth,
            pipeline=Pipeline([gate, *default_stages()]),
        )
        return service, gate

    def test_weight_charges_workers(self, census_small):
        service = ExplorationService(max_workers=2, max_queue_depth=2)
        try:
            def weigh(config):
                return service._admission_weight("census", config)

            base = AtlasConfig(fidelity="sketch:1000")
            assert weigh(AtlasConfig()) == 1  # serial
            assert weigh(base) == 1           # sketch but unsharded
            # Exact fidelity never shards → weight 1 even when asked.
            assert weigh(AtlasConfig(parallelism="parallel:4:8")) == 1
            assert weigh(base.replace(parallelism="parallel:3:8")) == 3
            # Clamped to the shard count (no more threads than shards).
            assert weigh(base.replace(parallelism="parallel:8:2")) == 2
            # Clamped to the in-flight capacity so it stays admittable.
            assert weigh(base.replace(parallelism="parallel:16:16")) == 4
        finally:
            service.close()

    def test_weight_follows_the_serving_context(self, census_small):
        """Contexts are shared across worker counts, so the charge is
        what the serving context would scan with — not what was asked."""
        service = ExplorationService(max_workers=4, max_queue_depth=4)
        service.register("census", census_small)
        try:
            # First request creates the shared context with workers=1.
            service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:1:4",
            )
            base = AtlasConfig(fidelity="sketch:1000")
            # A parallel:4 request served by that context runs serial —
            # charged 1, not 4.
            assert service._admission_weight(
                "census", base.replace(parallelism="parallel:4:4")
            ) == 1
            # An unregistered table has no context yet: the request's
            # own parallelism is the best estimate.
            assert service._admission_weight(
                "elsewhere", base.replace(parallelism="parallel:4:4")
            ) == 4
        finally:
            service.close()

    def test_warm_context_weighs_one(self, census_small):
        """A context whose statistics are built never scans again, so
        only a cold build is charged its scan threads."""
        service = ExplorationService(max_workers=2, max_queue_depth=2)
        service.register("census", census_small)
        try:
            config = AtlasConfig(
                fidelity="sketch:1000", parallelism="parallel:2:4"
            )
            assert service._admission_weight("census", config) == 2
            service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:2:4",
            )
            assert service._admission_weight("census", config) == 1
            assert service._admission_weight("elsewhere", config) == 2
        finally:
            service.close()

    def test_concurrent_threaded_builds_match_inline(self, census_small):
        """Two cold ``parallel:2`` builds run at once on one service,
        each equal to its ``parallel:1`` twin, and leave no slot
        behind."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.evaluation.metrics import map_set_fingerprint

        def answer(service, seed, workers):
            return service.explore(
                "census", "Age: [17, 60]", AtlasConfig(seed=seed), False,
                "sketch:1000", f"parallel:{workers}:4",
            )

        serial = ExplorationService(max_workers=1)
        serial.register("census", census_small)
        try:
            expected = {
                seed: map_set_fingerprint(answer(serial, seed, 1).map_set)
                for seed in (3, 4)
            }
        finally:
            serial.close()

        service, gate = self._gated_service(max_workers=2, max_queue_depth=2)
        service.register("census", census_small)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = {
                    seed: pool.submit(answer, service, seed, 2)
                    for seed in (3, 4)
                }
                # Both are admitted and in the pipeline before either
                # builds, so the two scan pools overlap.
                gate.entered.acquire()
                gate.entered.acquire()
                gate.release.set()
                got = {
                    seed: map_set_fingerprint(future.result(30).map_set)
                    for seed, future in futures.items()
                }
            assert got == expected
            assert service.metrics()["service"]["pending"] == 0
            assert service.metrics()["service"]["pending_by_tenant"] == {}
        finally:
            gate.release.set()
            service.close()

    def test_parallel_request_consumes_queue_capacity(self, census_small):
        service, gate = self._gated_service(max_workers=2, max_queue_depth=2)
        service.register("census", census_small)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as pool:
            # One gated parallel:3 explore occupies 3 of the 4 slots.
            blocked = pool.submit(
                service.explore, "census", "Age: [17, 45]",
                None, False, "sketch:1000", "parallel:3:4",
            )
            gate.entered.acquire()
            # One more serial request fits (weight 1 → 4 slots used)...
            second = pool.submit(
                service.explore, "census", "Sex: {'Female'}",
                None, False,
            )
            gate.entered.acquire()
            # ...and now *any* further request is shed, serial included.
            with pytest.raises(AdmissionError):
                service.explore("census", "Salary: {'>50k'}")
            gate.release.set()
            assert blocked.result(timeout=30).map_set is not None
            assert second.result(timeout=30).map_set is not None
        service.close()

    def test_oversized_parallel_request_still_admittable_when_idle(
        self, census_small
    ):
        # weight is clamped to max_inflight, so one huge request on an
        # idle service runs instead of being unschedulable forever.
        service = ExplorationService(max_workers=1, max_queue_depth=0)
        service.register("census", census_small)
        try:
            response = service.explore(
                "census", fidelity="sketch:1000",
                parallelism="parallel:16:4",
            )
            assert len(response.map_set.ranked) >= 1
        finally:
            service.close()
