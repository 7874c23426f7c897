"""The service mount through the asyncio client: routes, tenancy,
deadlines, access logs (``test_http_e2e.py`` drives the same server
through the blocking client)."""

import asyncio
import threading

import pytest

from repro.engine.facade import explorer
from repro.service import (
    AsyncServiceClient,
    AsyncServiceServer,
    AuthError,
    DeadlineExceededError,
    ExplorationService,
    ProtocolError,
    RateLimitError,
    ServiceClient,
    Tenant,
    serve_async,
)


@pytest.fixture
def service(census_small):
    built = ExplorationService(max_workers=2, max_queue_depth=8)
    built.register(census_small)
    yield built
    built.close()


@pytest.fixture
def server(service):
    with serve_async(service) as running:
        yield running


def run(coroutine):
    return asyncio.run(coroutine)


class TestRoutes:
    def test_health(self, server):
        async def probe():
            async with AsyncServiceClient(server.url) as client:
                return await client.health()

        assert run(probe())["status"] == "ok"

    def test_explore_matches_local(self, server, census_small):
        async def explore():
            async with AsyncServiceClient(server.url) as client:
                return await client.explore("census", "Age: [17, 90]")

        remote = run(explore())
        local = explorer(census_small).explore("Age: [17, 90]")
        assert remote.map_set.maps == local.maps

    def test_tables_metrics_history(self, server):
        async def probe():
            async with AsyncServiceClient(server.url) as client:
                await client.explore("census")
                return (
                    await client.tables(),
                    await client.metrics(),
                    await client.history(),
                )

        tables, metrics, history = run(probe())
        assert "census" in tables
        assert metrics["service"]["protocol"] == 1
        assert metrics["requests"]["received"] == 1
        assert [entry["status"] for entry in history] == ["completed"]

    def test_register_table_and_append(self, server):
        async def drive():
            async with AsyncServiceClient(server.url) as client:
                name = (
                    await client.request(
                        "POST",
                        "/tables",
                        {"generator": "census", "n_rows": 300, "seed": 7,
                         "name": "c2"},
                    )
                )["registered"]
                table = await client.tables()
                rows = {
                    "Age": [44], "Sex": ["F"], "Education": ["Masters"],
                    "Eye color": ["Brown"], "Salary": [90_000.0],
                }
                appended = await client.request(
                    "POST", "/append", {"table": "c2", "rows": rows}
                )
                return name, appended, table

        name, appended, tables = run(drive())
        assert name == "c2"
        assert "c2" in tables
        assert appended["appended"] == 1
        assert appended["version"] == 1

    def test_unknown_route_and_method(self, server):
        async def probe():
            async with AsyncServiceClient(server.url) as client:
                with pytest.raises(ProtocolError, match="no route"):
                    await client.request("GET", "/nope")
                with pytest.raises(ProtocolError, match="no route"):
                    await client.request("POST", "/nope", {})
                with pytest.raises(ProtocolError, match="unsupported method"):
                    await client.request("DELETE", "/tables", {})

        run(probe())

    def test_blocking_client_interoperates(self, server):
        # The blocking client and the asyncio client share one server:
        # same routes, same wire shapes, same keep-alive.
        client = ServiceClient(server.url)
        try:
            assert client.health()["status"] == "ok"
            response = client.explore("census", "Age: [17, 90]")
            assert response.map_set.maps
            again = client.explore("census", "Age: [17, 90]")
            assert again.cached
        finally:
            client.close()

    def test_history_query_params(self, server):
        client = ServiceClient(server.url)
        try:
            client.explore("census")
            assert client.history(tenant="anonymous")
            assert client.history(status="completed")
            assert client.history(status="failed") == []
            with pytest.raises(ProtocolError, match="must be an integer"):
                client.history(limit="wat")  # type: ignore[arg-type]
        finally:
            client.close()


class TestTenancy:
    @pytest.fixture
    def keyed_server(self, census_small):
        service = ExplorationService(
            max_workers=2,
            tenants=(
                Tenant("alice", api_key="k-alice"),
                Tenant("bursty", api_key="k-burst", rate=0.001, burst=1),
            ),
            require_api_key=True,
        )
        service.register(census_small)
        with serve_async(service) as running:
            yield running
        service.close()

    def test_missing_key_is_401(self, keyed_server):
        client = ServiceClient(keyed_server.url)
        try:
            with pytest.raises(AuthError, match="requires an API key"):
                client.explore("census")
        finally:
            client.close()

    def test_keyed_request_journals_the_tenant(self, keyed_server):
        client = ServiceClient(keyed_server.url, api_key="k-alice")
        try:
            client.explore("census")
            (entry,) = client.history(1)
            assert entry["tenant"] == "alice"
        finally:
            client.close()

    def test_rate_limited_tenant_gets_429_with_retry_after(
        self, keyed_server
    ):
        client = ServiceClient(keyed_server.url, api_key="k-burst")
        try:
            client.explore("census")  # burst of 1
            with pytest.raises(RateLimitError) as info:
                client.explore("census", use_cache=False)
            assert info.value.status == 429
            # The wire carried a whole-second Retry-After header.
            assert int(info.value.detail["retry_after_header"]) >= 1
        finally:
            client.close()

    def test_async_client_sends_its_key(self, keyed_server):
        async def probe():
            async with AsyncServiceClient(
                keyed_server.url, api_key="k-alice"
            ) as client:
                await client.explore("census")
                return await client.history(1)

        (entry,) = run(probe())
        assert entry["tenant"] == "alice"


class TestDeadlines:
    def test_deadline_exceeded_is_504_with_boundary_proof(self, server):
        client = ServiceClient(server.url)
        try:
            with pytest.raises(DeadlineExceededError) as info:
                client.explore(
                    "census", use_cache=False, deadline_seconds=1e-9
                )
            assert info.value.status == 504
            assert info.value.detail["stages_completed"] == 0
            assert info.value.detail["next_stage"] == "sampling"
        finally:
            client.close()

    def test_deadline_journalled(self, server):
        client = ServiceClient(server.url)
        try:
            with pytest.raises(DeadlineExceededError):
                client.explore(
                    "census", use_cache=False, deadline_seconds=1e-9
                )
            (entry,) = client.history(1, status="deadline_exceeded")
            assert entry["detail"]["next_stage"] == "sampling"
        finally:
            client.close()


class TestAccessLog:
    def test_one_structured_record_per_request(self, service):
        records = []
        with AsyncServiceServer(service, access_log=records.append) as server:
            client = ServiceClient(server.url)
            try:
                client.health()
                client.explore("census", "Age: [17, 90]")
                with pytest.raises(ProtocolError):
                    client._transport.request("GET", "/nope")
            finally:
                client.close()
        assert [r["path"] for r in records] == ["/health", "/explore", "/nope"]
        assert [r["status"] for r in records] == [200, 200, 404]
        explore = records[1]
        assert explore["method"] == "POST"
        assert explore["tenant"] == "anonymous"
        assert explore["elapsed_ms"] > 0.0
        assert explore["bytes"] > 0
        assert isinstance(explore["ts"], float)

    def test_quiet_default_logs_nothing(self, service):
        # quiet=True (the default) must not install the stdlib logger.
        with AsyncServiceServer(service) as server:
            assert server._access_log is None


class TestClientRobustness:
    def test_reconnects_after_server_side_close(self, server):
        async def probe():
            async with AsyncServiceClient(server.url) as client:
                await client.health()
                await client.aclose()  # drop our socket on purpose
                return await client.health()  # lazily reconnects

        assert run(probe())["status"] == "ok"

    def test_oversized_body_is_413(self, server):
        client = ServiceClient(server.url)
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                client.explore("census", "Age: [17, " + "9" * (1 << 20) + "]")
        finally:
            client.close()

    def test_many_concurrent_async_clients(self, server):
        async def one(i):
            async with AsyncServiceClient(server.url) as client:
                response = await client.explore(
                    "census", "Age: [17, 90]", retry_busy=10
                )
                return len(response.map_set.maps)

        async def fleet():
            return await asyncio.gather(*(one(i) for i in range(24)))

        results = run(fleet())
        assert len(results) == 24
        assert all(count >= 1 for count in results)

    def test_threaded_blocking_clients(self, server):
        errors = []

        def hammer():
            client = ServiceClient(server.url)
            try:
                for _ in range(5):
                    client.explore("census", "Age: [17, 90]", retry_busy=10)
            except Exception as error:  # pragma: no cover
                errors.append(error)
            finally:
                client.close()

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestLifecycle:
    def test_port_conflict_raises_cleanly(self, server, service):
        _, port = server.address
        from repro.service.protocol import ServiceError

        with pytest.raises(ServiceError, match="failed to start"):
            serve_async(service, port=port)

    def test_close_is_idempotent(self, service):
        server = serve_async(service)
        server.close()
        server.close()

    def test_address_requires_running_server(self, service):
        from repro.service.protocol import ServiceError

        stopped = AsyncServiceServer(service)
        with pytest.raises(ServiceError, match="not running"):
            stopped.url
