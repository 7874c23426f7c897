"""Wire conformance of the one HTTP core, on both of its mounts.

Every case talks raw bytes to a real socket, once against the
exploration service's route table and once against the shard server's:
whatever the bytes, the answer is a typed JSON error or a clean
response — never a 500, an HTML page, or a second response on a socket
the first request poisoned.
"""

from __future__ import annotations

import json
import pathlib
import socket
import statistics
import time

import pytest

from repro.cluster import serve_shard
from repro.service import ExplorationService, serve
from repro.service.httpd import MAX_HEAD_BYTES, JsonHttpServer
from repro.service.protocol import RateLimitError, ShardUnavailableError
from repro.service.transport import HttpTransport

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture(params=["service", "shard"])
def mount(request):
    """A running mount, its body limit, and one of its POST routes."""
    if request.param == "service":
        with ExplorationService() as service, serve(service) as server:
            yield server, server._max_body_bytes, "/explore"
    else:
        with serve_shard() as server:
            yield server, server._max_body_bytes, "/scan"


def exchange(server, data: bytes) -> list[tuple[int, dict, dict]]:
    """Send ``data``; return every ``(status, headers, body)`` until EOF."""
    responses = []
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(data)
        stream = sock.makefile("rb")
        while True:
            status_line = stream.readline()
            if not status_line:
                return responses
            version, status, reason = status_line.decode().split(" ", 2)
            assert version == "HTTP/1.1"
            assert reason.strip() not in ("", "X")
            headers = {}
            for line in iter(stream.readline, b"\r\n"):
                name, _, value = line.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            assert headers["content-type"] == "application/json"
            body = json.loads(stream.read(int(headers["content-length"])))
            responses.append((int(status), headers, body))


def assert_refused(responses, status: int, match: str) -> None:
    """Exactly one typed error, then a closed connection."""
    assert [r[0] for r in responses] == [status]
    _, headers, body = responses[0]
    assert headers["connection"] == "close"
    assert body["error"]["type"] == "ProtocolError"
    assert body["error"]["status"] == status
    assert match in body["error"]["message"]


class TestFraming:
    def test_malformed_request_line(self, mount):
        server, _, _ = mount
        responses = exchange(
            server, b"GARBAGE\r\n\r\nGET /health HTTP/1.1\r\n\r\n"
        )
        assert_refused(responses, 400, "malformed request line")

    def test_head_of_many_lines_over_the_limit(self, mount):
        server, _, _ = mount
        padding = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"a" * 1000) for i in range(40)
        )
        assert len(padding) > MAX_HEAD_BYTES
        responses = exchange(
            server, b"GET /health HTTP/1.1\r\n" + padding + b"\r\n"
        )
        assert_refused(responses, 431, "head too large")

    def test_one_over_long_line(self, mount):
        server, _, _ = mount
        line = b"GET /" + b"a" * (MAX_HEAD_BYTES + 1000) + b" HTTP/1.1\r\n\r\n"
        try:
            responses = exchange(server, line)
        except ConnectionError:
            return  # dropping the connection is an allowed answer
        if responses:
            assert_refused(responses, 431, "head too large")

    def test_oversized_body_is_413_without_reading_it(self, mount):
        server, limit, route = mount
        head = f"POST {route} HTTP/1.1\r\nContent-Length: {5 * limit}\r\n\r\n"
        responses = exchange(server, head.encode() + b"{}")
        assert_refused(responses, 413, "exceeds")

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "", "0x10"])
    def test_bad_content_length(self, mount, declared):
        server, _, route = mount
        head = f"POST {route} HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
        responses = exchange(
            server, head.encode() + b"GET /health HTTP/1.1\r\n\r\n"
        )
        assert_refused(responses, 400, "malformed Content-Length")

    def test_transfer_encoding_is_refused_not_misparsed(self, mount):
        server, _, route = mount
        head = f"POST {route} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        # The chunk bytes must never be read as a second request line.
        responses = exchange(
            server, head.encode() + b"2\r\n{}\r\n0\r\n\r\n"
        )
        assert_refused(responses, 411, "Transfer-Encoding")

    def test_body_that_is_not_utf8_is_a_typed_400(self, mount):
        server, _, route = mount
        head = f"POST {route} HTTP/1.1\r\nContent-Length: 2\r\n\r\n"
        tail = b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
        first, second = exchange(server, head.encode() + b"\xff\xfe" + tail)
        assert first[0] == 400
        assert "not valid JSON" in first[2]["error"]["message"]
        # The body was consumed whole, so the connection stays usable.
        assert first[1]["connection"] == "keep-alive"
        assert second[0] == 200


class TestConnectionReuse:
    def test_two_requests_on_one_keep_alive_socket(self, mount):
        server, _, _ = mount
        responses = exchange(
            server,
            b"GET /health HTTP/1.1\r\n\r\n"
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [r[0] for r in responses] == [200, 200]
        assert responses[0][1]["connection"] == "keep-alive"
        assert responses[1][1]["connection"] == "close"
        assert responses[0][2]["status"] == "ok"

    def test_http_1_0_closes_after_one_response(self, mount):
        server, _, _ = mount
        responses = exchange(
            server, b"GET /health HTTP/1.0\r\n\r\nGET /health HTTP/1.0\r\n\r\n"
        )
        assert [r[0] for r in responses] == [200]
        assert responses[0][1]["connection"] == "close"


class TestRouting:
    def test_unrouted_requests_are_typed_and_keep_the_connection(self, mount):
        server, _, _ = mount
        responses = exchange(
            server,
            b"GET /nope HTTP/1.1\r\n\r\n"
            b"POST /nope HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            b"PUT /health HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [r[0] for r in responses] == [404, 400, 400, 200]
        unknown_get, unknown_post, bad_method, _ = responses
        assert unknown_get[2]["error"]["code"] == "not_found"
        assert "no route '/nope'" in unknown_get[2]["error"]["message"]
        assert "no route '/nope'" in unknown_post[2]["error"]["message"]
        assert "unsupported method 'PUT'" in bad_method[2]["error"]["message"]
        for _, headers, body in responses[:3]:
            assert headers["connection"] == "keep-alive"
            assert body["error"]["type"] == "ProtocolError"

    def test_post_without_a_body_is_a_typed_400(self, mount):
        server, _, route = mount
        head = f"POST {route} HTTP/1.1\r\nConnection: close\r\n\r\n"
        ((status, _, body),) = exchange(server, head.encode())
        assert status == 400
        assert "request body required" in body["error"]["message"]


class TestRetryAfter:
    def test_429_and_503_carry_retry_after(self):
        def limited(payload, query, headers):
            raise RateLimitError("slow down", detail={"retry_after": 2.5})

        def unavailable(payload, query, headers):
            raise ShardUnavailableError("shard 3 is down")

        routes = {("GET", "/limited"): limited, ("GET", "/down"): unavailable}
        with JsonHttpServer(
            routes, "127.0.0.1", 0, max_body_bytes=1024, workers=1, name="t"
        ) as server:
            limited_response, down_response = exchange(
                server,
                b"GET /limited HTTP/1.1\r\n\r\n"
                b"GET /down HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
        assert limited_response[0] == 429
        assert limited_response[1]["retry-after"] == "3"  # rounded up
        assert limited_response[2]["error"]["type"] == "RateLimitError"
        assert down_response[0] == 503
        assert down_response[1]["retry-after"] == "1"  # the minimum hint


class TestNoStall:
    def test_keep_alive_round_trip_is_not_a_delayed_ack(self, mount):
        # A response written as head + body in two segments waits out
        # the client's delayed ACK: 44 ms per round trip on Linux.
        server, _, _ = mount
        transport = HttpTransport(server.url, timeout=10.0)
        try:
            transport.request("GET", "/health")
            samples = []
            for _ in range(20):
                started = time.perf_counter()
                transport.request("GET", "/health")
                samples.append(time.perf_counter() - started)
        finally:
            transport.close()
        assert statistics.median(samples) < 0.010


class TestLifecycle:
    def test_url_outlives_close_and_a_busy_port_is_a_typed_error(self, mount):
        from repro.service.protocol import ServiceError

        server, _, _ = mount
        host, port = server.address
        routes = {("GET", "/health"): lambda *_: (200, {})}
        other = JsonHttpServer(
            routes, host, port, max_body_bytes=1, workers=1, name="other"
        )
        with pytest.raises(ServiceError, match="other failed to start"):
            other.start()
        server.close()
        server.close()
        assert server.url == f"http://{host}:{port}"
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()


class TestOneServer:
    """Structural guard: the wire code exists once."""

    def sources(self):
        return {path: path.read_text() for path in SRC.rglob("*.py")}

    def test_no_module_uses_http_server(self):
        banned = ("http.server", "ThreadingHTTPServer", "BaseHTTPRequestHandler")
        offenders = [
            str(path.relative_to(SRC))
            for path, text in self.sources().items()
            if any(word in text for word in banned)
        ]
        assert offenders == []

    def test_exactly_one_module_starts_a_server(self):
        callers = [
            str(path.relative_to(SRC))
            for path, text in self.sources().items()
            if "asyncio.start_server(" in text
        ]
        assert callers == ["service/httpd.py"]
