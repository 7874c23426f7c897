"""The service core: caching, shared contexts, admission control."""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.db.connection import SqlConnection
from repro.engine.facade import explorer
from repro.service.protocol import (
    AdmissionError,
    ProtocolError,
    UnknownTableError,
)
from repro.service.service import ExplorationService


class TestRegistration:
    def test_unknown_table_raises_404_shape(self, census_service):
        with pytest.raises(UnknownTableError, match="unknown table 'nope'"):
            census_service.explore("nope")

    def test_duplicate_name_rejected_without_overwrite(
        self, census_service, census_small
    ):
        with pytest.raises(ProtocolError, match="already registered"):
            census_service.register(census_small)
        census_service.register(census_small, overwrite=True)

    def test_register_spec_builds_and_names(self, census_service):
        name = census_service.register(
            {"generator": "census", "n_rows": 500, "seed": 3, "name": "c2"}
        )
        assert name == "c2"
        assert "c2" in census_service.table_names()
        response = census_service.explore("c2")
        assert response.map_set.n_rows_used == 500

    def test_register_spec_unknown_generator(self, census_service):
        with pytest.raises(ProtocolError, match="unknown table generator"):
            census_service.register({"generator": "mystery"})

    def test_register_connection_serves_sql_tables(self, census_small):
        # The SqlAtlas deployment shape: tables behind a SQL-text-only
        # connection, served through the same explore endpoint.
        connection = SqlConnection({"census": census_small})
        with ExplorationService() as service:
            names = service.register(connection)
            assert names == ("census",)
            assert "SqlConnection" in service.describe_tables()["census"]
            response = service.explore("census", "Age: [17, 90]")
            local = explorer(census_small).explore("Age: [17, 90]")
            assert response.map_set.maps == local.maps


class TestOverwriteRace:
    def test_overwrite_during_lazy_load_wins(self, census_small):
        # A source whose load() triggers an overwrite of its own name:
        # the resolution loop must install the *new* registration, not
        # the stale materialization of the replaced source.
        from repro.service.sources import TableSource

        replacement = census_small.sample(
            100, rng=__import__("numpy").random.default_rng(0)
        ).rename("census")

        class SneakySource(TableSource):
            def __init__(self, service):
                self.service = service

            def load(self):
                self.service.register(replacement, overwrite=True)
                return census_small

            def describe(self):
                return "sneaky"

        with ExplorationService() as service:
            service.register("census", SneakySource(service))
            resolved = service._resolve_table("census")
            assert resolved is replacement


class TestResultCache:
    def test_repeat_query_is_served_from_cache(self, census_service):
        first = census_service.explore("census", "Age: [17, 45]")
        second = census_service.explore("census", "Age: [17, 45]")
        assert first.cached is False
        assert second.cached is True
        assert second.map_set is first.map_set  # the very same object
        requests = census_service.metrics()["requests"]
        assert requests["completed"] == 1
        assert requests["cache_hits"] == 1

    def test_equivalent_query_shapes_share_one_entry(self, census_service):
        text = census_service.explore("census", "Age: [17, 45]")
        structured = census_service.explore(
            "census", {"predicates": [{
                "kind": "range", "attribute": "Age",
                "low": 17, "high": 45,
            }]}
        )
        assert structured.cached is True
        assert structured.map_set.maps == text.map_set.maps

    def test_use_cache_false_bypasses_read_and_write(self, census_service):
        census_service.explore("census", "Age: [17, 45]", use_cache=False)
        second = census_service.explore(
            "census", "Age: [17, 45]", use_cache=False
        )
        assert second.cached is False
        assert census_service.metrics()["requests"]["completed"] == 2

    def test_different_config_is_a_different_entry(self, census_service):
        a = census_service.explore("census", "Age: [17, 45]")
        b = census_service.explore(
            "census", "Age: [17, 45]", config={"max_maps": 1}
        )
        assert b.cached is False
        assert len(b.map_set) <= 1
        assert a.cached is False

    def test_answers_match_local_engine(self, census_service, census_small):
        remote = census_service.explore("census", "Age: [17, 90]")
        local = explorer(census_small).explore("Age: [17, 90]")
        assert remote.map_set.maps == local.maps
        assert [r.score for r in remote.map_set.ranked] == [
            r.score for r in local.ranked
        ]


class TestSharedContexts:
    def test_statistics_are_shared_across_queries(self, census_service):
        census_service.explore("census", "Age: [17, 45]")
        before = census_service.metrics()["statistics_cache"]
        census_service.explore("census", "Age: [17, 45]\nSex: {'Female'}")
        after = census_service.metrics()["statistics_cache"]
        # The drill-down reuses memoized masks from the first answer.
        assert after["hits"] > before["hits"]

    def test_context_count_is_bounded(self, census_small):
        with ExplorationService(max_contexts=2) as service:
            service.register(census_small)
            for seed in range(5):
                service.explore("census", config={"seed": seed})
            assert service.metrics()["service"]["contexts"] <= 2


class TestAdmissionControl:
    def test_saturated_queue_rejects_fast(self, gated, census_small):
        service, gate = gated
        service.register(census_small)
        pool = ThreadPoolExecutor(max_workers=4)
        try:
            # Fill both workers and both queue slots (4 = max inflight).
            futures = [
                pool.submit(
                    service.explore, "census", f"Age: [17, {40 + i}]"
                )
                for i in range(4)
            ]
            # Wait until both workers are actually inside the pipeline.
            assert gate.entered.acquire(timeout=10)
            assert gate.entered.acquire(timeout=10)
            # ... and until all four requests hold an admission slot.
            deadline = time.monotonic() + 10
            while (
                service.metrics()["service"]["pending"] < 4
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert service.metrics()["service"]["pending"] == 4

            with pytest.raises(AdmissionError, match="at capacity"):
                service.explore("census", "Age: [17, 90]")
            assert service.metrics()["requests"]["rejected"] == 1

            gate.release.set()
            results = [f.result(timeout=30) for f in futures]
            assert all(len(r.map_set) >= 1 for r in results)
            assert service.metrics()["requests"]["rejected"] == 1
        finally:
            gate.release.set()
            pool.shutdown(wait=True)

    def test_cache_hits_bypass_admission(self, gated, census_small):
        service, gate = gated
        service.register(census_small)
        gate.release.set()  # let the first run through
        service.explore("census", "Age: [17, 45]")
        gate.release.clear()
        # With the gate closed again, a cold explore would hang — but a
        # warm one answers instantly without touching the pool.
        response = service.explore("census", "Age: [17, 45]")
        assert response.cached is True

    def test_closed_service_refuses_work(self, census_small):
        service = ExplorationService()
        service.register(census_small)
        service.close()
        with pytest.raises(Exception, match="shut down"):
            service.explore("census")


class TestMetricsAndErrors:
    def test_failed_requests_are_counted(self, census_service):
        with pytest.raises(Exception):
            census_service.explore("census", "Age ???")  # unparseable
        assert census_service.metrics()["requests"]["failed"] == 1

    def test_metrics_shape(self, census_service):
        census_service.explore("census", "Age: [17, 45]")
        snapshot = census_service.metrics()
        assert snapshot["latency"]["total"]["count"] == 1
        stages = snapshot["latency"]["stages"]
        assert set(stages) == {
            "sampling", "candidates", "clustering", "merging", "ranking"
        }
        assert snapshot["latency"]["total"]["p50"] >= stages["ranking"]["p50"]
        assert snapshot["service"]["max_inflight"] == 2 + 8
        assert snapshot["service"]["tables"].keys() == {"census"}

    def test_concurrent_mixed_workload_zero_errors(self, census_service):
        queries = [
            None,
            "Age: [17, 45]",
            "Age: [46, 90]",
            "Sex: {'Female'}",
            "Salary: {'>50k'}",
        ]

        def job(i):
            return census_service.explore("census", queries[i % len(queries)])

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [
                f.result(timeout=60)
                for f in [pool.submit(job, i) for i in range(40)]
            ]
        assert len(results) == 40
        assert census_service.metrics()["requests"]["failed"] == 0


class TestSlotLeaks:
    """Satellite 3: every path between admit and release is leak-free."""

    def test_pool_submit_failure_releases_the_slot(self, census_service):
        """A worker pool that refuses the submission (e.g. shut down
        behind the service's back) must not strand the admission slot."""
        def broken_submit(*args, **kwargs):
            raise RuntimeError("pool exploded")

        original = census_service._pool.submit
        census_service._pool.submit = broken_submit
        try:
            for _ in range(20):  # repeat: a leak accumulates
                with pytest.raises(RuntimeError, match="pool exploded"):
                    census_service.explore(
                        "census", "Age: [17, 90]", use_cache=False
                    )
        finally:
            census_service._pool.submit = original
        assert census_service.metrics()["service"]["pending"] == 0
        # The slots really came back: a normal request is admitted.
        assert census_service.explore("census", "Age: [17, 90]").map_set

    def test_failing_pipeline_releases_the_slot(self, census_service):
        for _ in range(5):
            with pytest.raises(Exception, match="expected 'attribute"):
                census_service.explore("census", "Age ???")
        assert census_service.metrics()["service"]["pending"] == 0

    def test_threaded_churn_with_failures_never_leaks(self, census_service):
        """Mixed success/failure churn across threads drains to zero."""
        def job(i):
            try:
                census_service.explore(
                    "census",
                    "Age ???" if i % 3 == 0 else "Age: [17, 90]",
                    use_cache=False,
                )
            except Exception:
                pass

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(job, i) for i in range(48)]:
                future.result(timeout=60)
        assert census_service.metrics()["service"]["pending"] == 0
        assert census_service.metrics()["service"]["pending_by_tenant"] == {}

    def test_deadline_exceeded_releases_the_slot(self, census_service):
        from repro.service.protocol import DeadlineExceededError

        with pytest.raises(DeadlineExceededError):
            census_service.explore(
                "census", use_cache=False, deadline_seconds=1e-9
            )
        assert census_service.metrics()["service"]["pending"] == 0


class TestAppendReregisterRace:
    """Satellite 4: the re-register-during-append race answers 404."""

    def test_reregistration_between_resolve_and_append(
        self, census_service, census_small
    ):
        catalog = census_service.catalog
        original_resolve = catalog.resolve

        def hostile_resolve(name):
            table = original_resolve(name)
            # Another client re-registers the name after our resolve
            # but before the append takes the catalog lock: the
            # materialized-table slot empties, and the append must not
            # apply rows to a table object that is no longer served.
            with catalog._lock:
                catalog._tables.pop(name, None)
            return table

        catalog.resolve = hostile_resolve
        try:
            with pytest.raises(
                UnknownTableError, match="re-registered during the append"
            ):
                (first_row,) = census_small.head(1)
                census_service.append(
                    "census",
                    {name: [value] for name, value in first_row.items()},
                )
        finally:
            catalog.resolve = original_resolve


class TestDeadlines:
    def test_expired_deadline_stops_before_any_stage(self, census_service):
        from repro.service.protocol import DeadlineExceededError

        with pytest.raises(DeadlineExceededError) as info:
            census_service.explore(
                "census", use_cache=False, deadline_seconds=1e-9
            )
        assert info.value.status == 504
        assert info.value.detail["stages_completed"] == 0
        assert info.value.detail["next_stage"] == "sampling"
        assert census_service.metrics()["requests"]["deadline_exceeded"] == 1

    def test_cancelled_run_leaves_context_and_cache_consistent(
        self, census_service, census_small
    ):
        """Satellite 4: a deadline-cancelled run must neither poison the
        shared context nor leave a partial answer in the result cache."""
        from repro.engine.facade import explorer
        from repro.service.protocol import DeadlineExceededError

        with pytest.raises(DeadlineExceededError):
            census_service.explore(
                "census", "Age: [17, 90]", deadline_seconds=1e-9
            )
        # Nothing partial was cached: the same query now runs cold...
        response = census_service.explore("census", "Age: [17, 90]")
        assert response.cached is False
        # ...through the same shared context, and matches a fresh local
        # engine bit-for-bit.
        local = explorer(census_small).explore("Age: [17, 90]")
        assert response.map_set.maps == local.maps

    def test_generous_deadline_is_invisible(self, census_service):
        response = census_service.explore(
            "census", "Age: [17, 90]", deadline_seconds=3600.0
        )
        assert response.map_set.maps
        assert census_service.metrics()["requests"]["deadline_exceeded"] == 0

    def test_deadline_never_part_of_the_cache_key(self, census_service):
        census_service.explore("census", "Age: [17, 90]")
        warm = census_service.explore(
            "census", "Age: [17, 90]", deadline_seconds=3600.0
        )
        assert warm.cached is True


class TestTenancyIntegration:
    def test_explicit_tenant_is_journalled(self, census_small):
        from repro.service.tenancy import Tenant

        with ExplorationService(tenants=(Tenant("alice"),)) as service:
            service.register(census_small)
            service.explore("census", tenant="alice")
            (entry,) = service.history_entries(1)
            assert entry["tenant"] == "alice"
            assert entry["status"] == "completed"

    def test_rate_limited_tenant_journalled_and_counted(self, census_small):
        from repro.service.protocol import RateLimitError
        from repro.service.tenancy import Tenant

        limited = Tenant("burst", rate=0.0001, burst=1)
        with ExplorationService(tenants=(limited,)) as service:
            service.register(census_small)
            service.explore("census", tenant="burst")
            with pytest.raises(RateLimitError):
                service.explore("census", tenant="burst", use_cache=False)
            assert service.metrics()["requests"]["rate_limited"] == 1
            (entry,) = service.history_entries(1, status="rate_limited")
            assert entry["detail"]["retry_after"] > 0
            assert service.metrics()["history"]["rate_limited"] == 1

    def test_tenant_inflight_cap_protects_other_tenants(
        self, gated, census_small
    ):
        from repro.service.protocol import RateLimitError
        from repro.service.tenancy import Tenant

        service, gate = gated  # 2 workers + 2 queue slots
        service.register(census_small)
        service.register_tenant(Tenant("greedy", max_inflight=2))
        pool = ThreadPoolExecutor(max_workers=4)
        try:
            futures = [
                pool.submit(
                    service.explore,
                    "census",
                    f"Age: [17, {40 + i}]",
                    tenant="greedy",
                )
                for i in range(2)
            ]
            assert gate.entered.acquire(timeout=10)
            assert gate.entered.acquire(timeout=10)
            # greedy is at its own cap; its next request sheds...
            with pytest.raises(RateLimitError, match="in-flight cap"):
                service.explore(
                    "census", "Age: [17, 90]", tenant="greedy"
                )
            # ...while the anonymous tenant still gets a slot (then
            # queues behind the gate; shed it quickly via its result).
            anon = pool.submit(
                service.explore, "census", "Age: [17, 43]"
            )
            gate.release.set()
            assert anon.result(timeout=30).map_set
            for future in futures:
                assert future.result(timeout=30).map_set
        finally:
            gate.release.set()
            pool.shutdown(wait=True)

    def test_history_persists_across_service_restarts(
        self, census_small, tmp_path
    ):
        path = str(tmp_path / "journal.db")
        with ExplorationService(history=path) as service:
            service.register(census_small)
            service.explore("census")
        with ExplorationService(history=path) as reborn:
            (entry,) = reborn.history_entries(1)
            assert entry["table"] == "census"
            assert entry["status"] == "completed"
