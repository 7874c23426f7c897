"""Two-phase explore dispatch over HTTP.

Phase 1 (tenant, rate, cache, admission) runs on the server's event
loop; phase 2 (the pipeline run) on the service pool.  These tests pin
where each phase runs, that the loop never waits on a table load or
the catalog lock, that no admission slot outlives its request, and
that a request ending in phase 1 writes one journal row.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import pytest

from repro.service import (
    ExplorationService,
    RateLimitError,
    ServiceClient,
    Tenant,
    UnknownTableError,
    serve,
)
from repro.service.sources import TableSource

QUERY = "Age: [17, 45]"


@pytest.fixture
def service(census_small):
    built = ExplorationService(max_workers=2, max_queue_depth=8)
    built.register(census_small)
    yield built
    built.close()


@pytest.fixture
def server(service):
    with serve(service) as running:
        yield running


def thread_log(monkeypatch, owner, name: str) -> list[str]:
    """Record the name of every thread that calls ``owner.<name>``."""
    original = getattr(owner, name)
    names: list[str] = []

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return names


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


def post_explore(address, payload: dict) -> socket.socket:
    """Send one raw ``POST /explore`` and return the open socket."""
    body = json.dumps(payload).encode()
    sock = socket.create_connection(address, timeout=10)
    sock.sendall(
        b"POST /explore HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
        + body
    )
    return sock


class TestDispatchShape:
    def test_a_cache_hit_is_served_on_the_loop_thread(
        self, server, service, monkeypatch
    ):
        client = ServiceClient(server.url)
        try:
            client.explore("census", QUERY)
            lookups = thread_log(monkeypatch, service._results, "get")
            for _ in range(3):
                assert client.explore("census", QUERY).cached
        finally:
            client.close()
        assert lookups == [server._thread.name] * 3

    def test_a_miss_takes_one_hop_to_the_service_pool(
        self, server, service, monkeypatch
    ):
        lookups = thread_log(monkeypatch, service._results, "get")
        runs = thread_log(monkeypatch, service, "_run")
        client = ServiceClient(server.url)
        try:
            assert not client.explore("census", QUERY).cached
        finally:
            client.close()
        assert lookups == [server._thread.name]
        (run,) = runs
        assert re.fullmatch(r"repro-service_\d+", run), run

    def test_explores_start_no_frontend_thread(self, server):
        before = set(threading.enumerate())
        client = ServiceClient(server.url)
        try:
            for text in (QUERY, "Age: [46, 90]", QUERY, None, None):
                client.explore("census", text)
            client.explore("census", QUERY, use_cache=False)
            client.health()
        finally:
            client.close()
        started = [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.name.startswith("repro-service-worker")
        ]
        assert started == []


class ParkedSource(TableSource):
    """A lazy source whose ``load`` waits until the test releases it."""

    def __init__(self, table):
        self._table = table
        self.entered = threading.Event()
        self.release = threading.Event()

    def load(self):
        self.entered.set()
        if not self.release.wait(timeout=30):  # pragma: no cover
            raise TimeoutError("the parked load was never released")
        return self._table

    def describe(self) -> str:
        return "parked"


class TestTheLoopNeverBlocks:
    def test_a_hit_answers_while_the_catalog_lock_is_held(
        self, server, service
    ):
        client = ServiceClient(server.url, timeout=5)
        try:
            client.explore("census", QUERY)
            # An append holds this lock across coerce, journal and
            # context advance.
            with service.catalog._lock:
                assert client.explore("census", QUERY).cached
        finally:
            client.close()

    def test_health_and_hits_answer_while_a_table_loads(
        self, server, service, census_small
    ):
        source = ParkedSource(census_small)
        service.register("lazy", source)
        answers = []

        def explore_lazy() -> None:
            client = ServiceClient(server.url)
            try:
                answers.append(client.explore("lazy", QUERY))
            finally:
                client.close()

        first = threading.Thread(target=explore_lazy)
        first.start()
        try:
            assert source.entered.wait(timeout=10)
            probe = ServiceClient(server.url, timeout=5)
            try:
                assert probe.health()["status"] == "ok"
                probe.explore("census", QUERY)
                assert probe.explore("census", QUERY).cached
            finally:
                probe.close()
        finally:
            source.release.set()
            first.join(timeout=30)
        assert not first.is_alive()
        assert answers[0].map_set.maps


class TestNoSlotOutlivesItsRequest:
    def test_a_client_that_disconnects_mid_run(self, gated, census_small):
        service, gate = gated
        service.register(census_small)
        with serve(service) as server:
            sock = post_explore(server.address, {"table": "census"})
            assert gate.entered.acquire(timeout=10)
            sock.close()
            gate.release.set()
            wait_until(lambda: service.metrics()["service"]["pending"] == 0)
        assert service.metrics()["service"]["pending_by_tenant"] == {}
        assert [e["status"] for e in service.history_entries()] == [
            "completed"
        ]

    def test_a_server_closed_mid_run(self, gated, census_small):
        service, gate = gated
        service.register(census_small)
        server = serve(service)
        sockets = [
            post_explore(
                server.address, {"table": "census", "query": f"Age: [17, {n}]"}
            )
            for n in (50, 60, 70)
        ]
        try:
            # Two runs hold both pool threads; the third waits behind.
            assert gate.entered.acquire(timeout=10)
            assert gate.entered.acquire(timeout=10)
            wait_until(lambda: service.metrics()["service"]["pending"] == 3)
            server.close()
            # Closing cancelled the queued run before a thread took it.
            assert service.metrics()["service"]["pending"] == 2
            gate.release.set()
            wait_until(lambda: service.metrics()["service"]["pending"] == 0)
        finally:
            gate.release.set()
            server.close()
            for sock in sockets:
                sock.close()
        assert service.metrics()["service"]["pending_by_tenant"] == {}
        statuses = sorted(e["status"] for e in service.history_entries())
        assert statuses == ["completed", "completed", "failed"]


class TestOneJournalRowPerPhaseOneOutcome:
    def test_hits_429s_and_404s_keep_their_history_rows(
        self, census_small, monkeypatch
    ):
        service = ExplorationService(
            tenants=[
                Tenant("alice", api_key="k-alice"),
                Tenant("bob", api_key="k-bob", rate=0.01, burst=1),
            ],
        )
        service.register(census_small)
        finishes = thread_log(monkeypatch, service.history, "finish")
        with service, serve(service) as server:
            alice = ServiceClient(server.url, api_key="k-alice")
            bob = ServiceClient(server.url, api_key="k-bob")
            try:
                computed = alice.explore("census", QUERY)
                alice.explore("census", QUERY, fidelity="exact")
                bob.explore("census", QUERY)  # the burst: a hit
                with pytest.raises(RateLimitError):
                    bob.explore("census", QUERY)
                with pytest.raises(UnknownTableError):
                    alice.explore("nope", QUERY)
                rows = alice.history(10)
            finally:
                alice.close()
                bob.close()
        # Only the computed answer was journaled in two writes.
        assert len(finishes) == 1
        unknown, limited, bob_hit, exact, completed = rows
        assert completed["status"] == "completed"
        assert completed["elapsed"] == computed.elapsed
        for hit, tenant, fidelity in (
            (exact, "alice", "exact"),
            (bob_hit, "bob", None),
        ):
            assert hit["tenant"] == tenant
            assert hit["table"] == "census"
            assert hit["query"] == QUERY
            assert hit["fidelity"] == fidelity
            assert hit["status"] == "cached"
            assert hit["elapsed"] == computed.elapsed
            assert hit["detail"] is None
        assert limited["tenant"] == "bob"
        assert limited["status"] == "rate_limited"
        assert limited["elapsed"] is None
        assert limited["detail"]["tenant"] == "bob"
        assert limited["detail"]["retry_after"] > 0
        assert unknown["tenant"] == "alice"
        assert unknown["table"] == "nope"
        assert unknown["status"] == "failed"
        assert unknown["elapsed"] is None
        assert unknown["detail"] == {
            "error": "unknown table 'nope'; known: census"
        }
