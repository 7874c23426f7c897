"""The keep-alive HTTP transport: reuse, reconnect, typed errors."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.cluster import serve_shard
from repro.service.protocol import (
    ProtocolError,
    RateLimitError,
    RemoteServiceError,
    error_to_dict,
)
from repro.service.transport import HttpTransport, decode_response


@pytest.fixture
def server():
    with serve_shard() as running:
        yield running


@pytest.fixture
def transport(server):
    built = HttpTransport(server.url, timeout=10.0)
    yield built
    built.close()


class TestUrlHandling:
    def test_normalizes_and_strips_trailing_slash(self):
        transport = HttpTransport("http://localhost:8801/")
        assert transport.base_url == "http://localhost:8801"

    def test_default_port_is_80(self):
        assert HttpTransport("http://example").base_url == "http://example:80"

    def test_rejects_non_http_schemes(self):
        with pytest.raises(ProtocolError, match="scheme"):
            HttpTransport("https://localhost:8801")


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, transport):
        transport.request("GET", "/health")
        first = transport._local.connection
        transport.request("GET", "/health")
        assert transport._local.connection is first

    def test_close_drops_the_connection(self, transport):
        transport.request("GET", "/health")
        first = transport._local.connection
        transport.close()
        assert first.sock is None  # actually closed, not just forgotten
        # And the next request transparently reconnects on a new socket.
        assert transport.request("GET", "/health")["status"] == "ok"
        assert transport._local.connection is not first

    def test_close_drops_other_threads_connections(self, transport):
        """close() must sweep sockets opened by *other* threads.

        The pre-PR-9 transport closed only the calling thread's
        ``threading.local`` slot; every other thread's keep-alive
        socket leaked until garbage collection.
        """
        import threading

        opened = []

        def use_from_thread():
            transport.request("GET", "/health")
            opened.append(transport._local.connection)

        workers = [threading.Thread(target=use_from_thread) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert len(opened) == 4
        assert all(connection.sock is not None for connection in opened)

        transport.close()  # called from the MAIN thread
        assert all(connection.sock is None for connection in opened)
        assert transport._live == []

        # Surviving threads reconnect cleanly after a foreign close().
        results = []

        def reuse_after_close():
            results.append(transport.request("GET", "/health")["status"])

        again = threading.Thread(target=reuse_after_close)
        again.start()
        again.join()
        assert results == ["ok"]

    def test_request_after_close_reconnects_in_same_thread(self, transport):
        transport.request("GET", "/health")
        stale = transport._local.connection
        transport.close()
        # The thread-local still references the swept connection; the
        # epoch check must refuse to reuse it.
        assert transport._local.connection is stale
        assert transport.request("GET", "/health")["status"] == "ok"
        assert transport._local.connection is not stale


class TestReconnectOnDrop:
    def install_flaky_round_trip(self, monkeypatch, error: Exception):
        """Make the next round trip fail once, counting attempts."""
        real = HttpTransport._round_trip
        calls = []

        def flaky(connection, method, path, body, headers):
            calls.append(path)
            if len(calls) == 1:
                raise error
            return real(connection, method, path, body, headers)

        monkeypatch.setattr(HttpTransport, "_round_trip", staticmethod(flaky))
        return calls

    def test_stale_keepalive_socket_retries_once(self, transport,
                                                 monkeypatch):
        transport.request("GET", "/health")  # establish a reused socket
        calls = self.install_flaky_round_trip(
            monkeypatch,
            http.client.RemoteDisconnected("server dropped idle socket"),
        )
        assert transport.request("GET", "/health")["status"] == "ok"
        assert len(calls) == 2

    def test_timeout_is_never_retried(self, transport, monkeypatch):
        transport.request("GET", "/health")  # the socket IS reused
        calls = self.install_flaky_round_trip(
            monkeypatch, socket.timeout("read timed out")
        )
        # A timed-out request may have reached the server; replaying it
        # blindly would be unsafe (and would double the wait), so the
        # transport surfaces the failure after ONE attempt.
        with pytest.raises(RemoteServiceError, match="timed out"):
            transport.request("GET", "/health")
        assert len(calls) == 1

    def test_fresh_connection_failure_is_not_retried(self, server,
                                                     monkeypatch):
        transport = HttpTransport(server.url, timeout=10.0)
        calls = self.install_flaky_round_trip(
            monkeypatch,
            http.client.RemoteDisconnected("failed before any success"),
        )
        with pytest.raises(RemoteServiceError):
            transport.request("GET", "/health")
        assert len(calls) == 1

    def test_unreachable_host_raises_remote_error(self):
        # Bind-then-close guarantees a dead port.
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        transport = HttpTransport(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(RemoteServiceError, match="cannot reach"):
            transport.request("GET", "/health")


class TestTypedErrors:
    def test_http_error_status_resurrects_typed_error(self, transport):
        with pytest.raises(ProtocolError, match="no route"):
            transport.request("GET", "/definitely-not-a-route")

    def test_error_does_not_poison_the_connection(self, transport):
        with pytest.raises(ProtocolError):
            transport.request("GET", "/nope")
        assert transport.request("GET", "/health")["status"] == "ok"


class TestDecodeResponse:
    """The response half both clients share, without a socket."""

    def test_object_body_is_returned(self):
        assert decode_response(200, b'{"a": 1}', None) == {"a": 1}
        assert decode_response(200, b"", None) == {}

    def test_unparsable_success_body_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_response(200, b"<html>", None)

    def test_non_object_success_body_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="expected a JSON object"):
            decode_response(200, b"[1, 2]", None)

    @pytest.mark.parametrize("raw", [b"<html>oops</html>", b"[1, 2]", b"{}"])
    def test_error_status_without_a_typed_payload_still_raises_typed(
        self, raw
    ):
        with pytest.raises(RemoteServiceError, match="HTTP 502"):
            decode_response(502, raw, None)

    def test_retry_after_header_is_merged_when_detail_lacks_it(self):
        raw = json.dumps(
            error_to_dict(RateLimitError("slow", detail={"retry_after": 0.4}))
        ).encode()
        with pytest.raises(RateLimitError) as info:
            decode_response(429, raw, "1")
        assert info.value.detail == {
            "retry_after": 0.4, "retry_after_header": "1",
        }

    def test_retry_after_in_the_payload_wins_over_the_header(self):
        detail = {"retry_after": 0.4, "retry_after_header": "7"}
        raw = json.dumps(
            error_to_dict(RateLimitError("slow", detail=detail))
        ).encode()
        with pytest.raises(RateLimitError) as info:
            decode_response(429, raw, "1")
        assert info.value.detail["retry_after_header"] == "7"

    def test_both_clients_parse_base_urls_alike(self):
        from repro.service import AsyncServiceClient

        for url in ("http://localhost:8801/", "http://example", "example"):
            assert (
                AsyncServiceClient(url).base_url
                == HttpTransport(url).base_url
            )
        with pytest.raises(ProtocolError, match="scheme"):
            AsyncServiceClient("https://localhost:8801")


class TestRetryDelay:
    def test_first_retry_waits_a_full_step(self):
        from repro.service.client import retry_delay
        from repro.service.protocol import AdmissionError

        # The regression this guards: a pre-increment multiplier made
        # the first "retry" sleep 0s and hammer a saturated server.
        delay = retry_delay(1, 0.05, AdmissionError("busy"))
        assert delay >= 0.05

    def test_jitter_is_deterministic_and_bounded(self):
        from repro.service.client import retry_delay
        from repro.service.protocol import AdmissionError

        error = AdmissionError("busy")
        delays = [retry_delay(n, 0.05, error) for n in range(1, 6)]
        again = [retry_delay(n, 0.05, error) for n in range(1, 6)]
        assert delays == again  # no RNG anywhere
        for n, delay in enumerate(delays, start=1):
            base = 0.05 * n
            assert base <= delay <= base * 1.25

    def test_server_hint_is_a_floor(self):
        from repro.service.client import retry_delay
        from repro.service.protocol import AdmissionError

        hinted = AdmissionError("busy", detail={"retry_after": 2.0})
        assert retry_delay(1, 0.05, hinted) == 2.0
        # A large backoff still wins over a smaller hint.
        small = AdmissionError("busy", detail={"retry_after": 0.01})
        assert retry_delay(1, 1.0, small) >= 1.0

    def test_non_numeric_hint_ignored(self):
        from repro.service.client import retry_delay
        from repro.service.protocol import AdmissionError

        weird = AdmissionError("busy", detail={"retry_after": "soon"})
        assert retry_delay(1, 0.05, weird) < 0.1
