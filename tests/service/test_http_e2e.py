"""End-to-end client ↔ server explores over real HTTP sockets."""

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.facade import explorer
from repro.query.parser import parse_query
from repro.service import serve
from repro.service.client import ServiceClient
from repro.service.protocol import (
    AdmissionError,
    ExploreRequest,
    ProtocolError,
    UnknownTableError,
)


@pytest.fixture
def served(census_service):
    with serve(census_service) as server:
        yield ServiceClient(server.url), server


class TestEndToEnd:
    def test_health_and_tables(self, served):
        client, _ = served
        assert client.health()["status"] == "ok"
        assert "census" in client.tables()

    def test_remote_explore_matches_local_engine(self, served, census_small):
        client, _ = served
        response = client.explore("census", "Age: [17, 90]")
        local = explorer(census_small).explore("Age: [17, 90]")
        assert response.cached is False
        assert response.map_set.maps == local.maps
        assert response.map_set.query == parse_query("Age: [17, 90]")
        assert response.map_set.n_rows_used == census_small.n_rows
        assert [r.score for r in response.map_set.ranked] == [
            r.score for r in local.ranked
        ]

    def test_second_call_hits_the_result_cache(self, served):
        client, _ = served
        cold = client.explore("census", "Sex: {'Female'}")
        warm = client.explore("census", "Sex: {'Female'}")
        assert cold.cached is False
        assert warm.cached is True
        assert warm.map_set.maps == cold.map_set.maps

    def test_parsed_query_and_config_travel(self, served):
        client, _ = served
        query = parse_query("Age: [17, 45]\nEducation: {'MSc'}")
        response = client.explore(
            "census", query, config={"max_maps": 2, "seed": 5}
        )
        assert len(response.map_set) <= 2
        assert response.map_set.query == query

    def test_register_table_then_explore_it(self, served):
        client, _ = served
        name = client.register_table(
            "census", n_rows=400, seed=11, name="census_e2e"
        )
        assert name == "census_e2e"
        assert "census_e2e" in client.tables()
        response = client.explore("census_e2e")
        assert response.map_set.n_rows_used == 400

    def test_metrics_reflect_traffic(self, served):
        client, _ = served
        client.explore("census", "Age: [17, 45]")
        client.explore("census", "Age: [17, 45]")
        metrics = client.metrics()
        assert metrics["requests"]["received"] >= 2
        assert metrics["requests"]["cache_hits"] >= 1
        assert metrics["latency"]["stages"]["candidates"]["count"] >= 1
        assert metrics["result_cache"]["hit_rate"] > 0

    def test_two_clients_share_one_service(self, served, census_small):
        client_a, server = served
        client_b = ServiceClient(server.url)
        cold = client_a.explore("census", "Salary: {'>50k'}")
        warm = client_b.explore("census", "Salary: {'>50k'}")
        # Client B benefits from client A's work: the multi-client point.
        assert warm.cached is True
        assert warm.map_set.maps == cold.map_set.maps

    def test_concurrent_clients_consistent_answers(self, served, census_small):
        client, server = served
        queries = ["Age: [17, 45]", "Sex: {'Female'}", "Education: {'MSc'}"]
        reference = {
            q: explorer(census_small).explore(q).maps for q in queries
        }

        def job(i):
            own_client = ServiceClient(server.url)
            q = queries[i % len(queries)]
            return q, own_client.explore("census", q, retry_busy=20)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [
                f.result(timeout=60)
                for f in [pool.submit(job, i) for i in range(24)]
            ]
        for q, response in results:
            assert response.map_set.maps == reference[q]


class TestHttpErrors:
    def test_unknown_table_is_404_typed(self, served):
        client, _ = served
        with pytest.raises(UnknownTableError, match="unknown table"):
            client.explore("not_registered")

    def test_bad_query_text_raises_what_local_would(self, served):
        from repro.errors import ParseError

        client, _ = served
        # The remote failure is the *same* exception type a local
        # parse_query call raises, so except-clauses keep working.
        with pytest.raises(ParseError, match="line 1"):
            client.explore("census", "Age ???")

    def test_malformed_predicate_values_are_400(self, served):
        from repro.errors import PredicateError

        client, _ = served
        with pytest.raises(PredicateError, match="malformed predicate"):
            client.explore("census", {"predicates": [{
                "kind": "range", "attribute": "Age",
                "low": "abc", "high": 1,
            }]})

    def test_non_dict_table_spec_is_400(self, served):
        _, server = served
        request = urllib.request.Request(
            server.url + "/tables",
            data=b"[1, 2]",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        payload = json.loads(info.value.read())
        assert payload["error"]["code"] == "bad_request"

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(Exception):
            client._request("GET", "/nope")

    def test_invalid_json_body_is_400(self, served):
        _, server = served
        request = urllib.request.Request(
            server.url + "/explore",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        payload = json.loads(info.value.read())
        assert payload["error"]["code"] == "bad_request"

    def test_oversized_body_is_rejected_and_connection_closed(self, served):
        import http.client

        _, server = served
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # Claim a huge body but never send it: the server must
            # reject AND close, or the unread bytes would be misparsed
            # as the next request on the keep-alive connection.
            connection.putrequest("POST", "/explore")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(10 << 20))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            payload = json.loads(response.read())
            assert "exceeds" in payload["error"]["message"]
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_saturated_server_returns_429_and_retry_succeeds(
        self, gated, census_small
    ):
        service, gate = gated
        service.register(census_small)
        with serve(service) as server:
            client = ServiceClient(server.url)
            pool = ThreadPoolExecutor(max_workers=4)
            try:
                futures = [
                    pool.submit(
                        client.explore, "census", f"Age: [17, {40 + i}]"
                    )
                    for i in range(4)
                ]
                assert gate.entered.acquire(timeout=10)
                assert gate.entered.acquire(timeout=10)
                import time as _time

                deadline = _time.monotonic() + 10
                while (
                    service.metrics()["service"]["pending"] < 4
                    and _time.monotonic() < deadline
                ):
                    _time.sleep(0.005)

                with pytest.raises(AdmissionError):
                    client.explore("census", "Age: [20, 60]")

                # With retries, the rejected query lands once capacity
                # frees up.
                gate.release.set()
                response = client.explore(
                    "census", "Age: [20, 60]", retry_busy=50,
                    busy_backoff=0.02,
                )
                assert len(response.map_set) >= 1
                for f in futures:
                    f.result(timeout=30)
            finally:
                gate.release.set()
                pool.shutdown(wait=True)


class TestNoKernelKnob:
    """There is one scan-kernel path: a ``kernels`` override is an
    unknown config key on the wire, and ``/metrics`` carries the kernel
    meters without naming a mode."""

    def test_kernels_override_is_a_typed_400(self, served):
        _, server = served
        request = urllib.request.Request(
            server.url + "/explore",
            data=json.dumps(
                {"table": "census", "config": {"kernels": "numpy"}}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        error = json.loads(info.value.read())["error"]
        assert error["code"] == "bad_request"
        assert "unknown config overrides: kernels" in error["message"]

    def test_kernels_override_rejected_in_process(self, census_service):
        request = ExploreRequest(table="census", config={"kernels": "numpy"})
        with pytest.raises(ProtocolError, match="kernels"):
            census_service.handle(request)

    def test_metrics_carry_kernel_meters_without_a_mode(self, served):
        client, _ = served
        client.explore("census", fidelity="sketch:200", use_cache=False)
        backends = client.metrics()["statistics_cache"]["backends"]
        assert backends["sketch"]["kernel_nanos"]
        assert "kernels" not in backends["sketch"]


class TestHttpAppend:
    """Streaming appends over real sockets (`POST /append`)."""

    DELTA = {
        "Age": [44.0, 61.0],
        "Sex": ["Female", "Male"],
        "Salary": [1500.0, 900.0],
        "Education": ["PhD", "Primary"],
        "Eye color": ["Blue", "Green"],
    }

    def test_append_then_explore_at_the_new_version(
        self, served, census_small
    ):
        client, _ = served
        stale = client.explore("census", "Age: [17, 90]")
        response = client.append("census", self.DELTA)
        assert response.version == 1
        assert response.n_rows == census_small.n_rows + 2
        assert response.appended == 2
        fresh = client.explore("census", "Age: [17, 90]")
        assert fresh.cached is False  # the pre-append entry is unreachable
        assert fresh.map_set.version == 1
        assert stale.map_set.version == 0

    def test_remote_append_matches_local_append(self, served, census_small):
        client, _ = served
        client.append("census", self.DELTA)
        local = explorer(census_small.append(self.DELTA)).explore()
        remote = client.explore("census")
        assert remote.map_set.maps == local.maps
        assert remote.map_set.version == local.version == 1

    def test_append_schema_mismatch_is_400(self, served):
        client, _ = served
        with pytest.raises(Exception) as caught:
            client.append("census", {"Age": [1.0]})
        from repro.errors import SchemaError

        assert isinstance(caught.value, SchemaError)

    def test_append_unknown_table_is_404(self, served):
        client, _ = served
        with pytest.raises(UnknownTableError):
            client.append("missing", {"Age": [1.0]})

    def test_append_malformed_rows_is_400(self, served):
        client, _ = served
        with pytest.raises(ProtocolError):
            client.append("census", {"Age": [1.0], "Sex": ["F", "M"]})
