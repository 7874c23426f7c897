"""Streaming appends through the service: /append, version-keyed
caching, and the staleness regressions.

The load-bearing invariant: **no cache layer can serve a pre-append
answer at a post-append version**.  The result cache keys on
``(name, generation, version, fidelity, config, query)``; an append
bumps the version, a re-registration bumps the generation, and either
makes every older entry unreachable.
"""

from __future__ import annotations

import pytest

from repro.dataset.table import Table
from repro.service.protocol import (
    AppendRequest,
    AppendResponse,
    ProtocolError,
    UnknownTableError,
    map_set_to_dict,
)
from repro.service.service import ExplorationService


def stream_table(n: int = 200, low: float = 0.0) -> Table:
    return Table.from_dict(
        {
            "x": [low + (i % 50) for i in range(n)],
            "label": [("even", "odd")[i % 2] for i in range(n)],
        },
        name="stream",
    )


def delta(n: int = 60, low: float = 200.0) -> dict:
    return {
        "x": [low + i for i in range(n)],
        "label": ["odd"] * n,
    }


def comparable(map_set) -> dict:
    data = map_set_to_dict(map_set)
    data.pop("timings")
    return data


@pytest.fixture
def service():
    with ExplorationService(max_workers=2) as svc:
        svc.register(stream_table())
        yield svc


class TestServiceAppend:
    def test_append_bumps_version_and_row_count(self, service):
        response = service.append("stream", delta())
        assert response == AppendResponse(
            table="stream", version=1, n_rows=260, appended=60
        )
        assert service.append("stream", delta()).version == 2

    def test_append_unknown_table_404s(self, service):
        with pytest.raises(UnknownTableError):
            service.append("nope", delta())

    def test_append_schema_mismatch_is_a_client_error(self, service):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            service.append("stream", {"x": [1.0]})

    def test_append_counts_in_metrics_and_tables(self, service):
        service.append("stream", delta())
        assert service.metrics()["requests"]["appends"] == 1
        assert "version 1" in service.describe_tables()["stream"]


class TestResultCacheStaleness:
    def test_append_makes_the_cached_answer_unreachable(self, service):
        """The latent staleness bug, pinned: the pre-PR cache keyed on
        (table, fidelity, config, query) only, so a data change kept
        serving the old answer."""
        first = service.explore("stream", "x: [0, 1000]")
        assert service.explore("stream", "x: [0, 1000]").cached
        service.append("stream", delta())
        after = service.explore("stream", "x: [0, 1000]")
        assert not after.cached  # the stale entry was bypassed
        assert after.map_set.version == 1
        assert comparable(after.map_set) != comparable(first.map_set)
        # The new version's answer caches under its own key.
        assert service.explore("stream", "x: [0, 1000]").cached

    def test_every_fidelity_is_version_keyed(self, service):
        fidelity = "sketch:100"
        service.explore("stream", None, fidelity=fidelity)
        assert service.explore("stream", None, fidelity=fidelity).cached
        service.append("stream", delta())
        answer = service.explore("stream", None, fidelity=fidelity)
        assert not answer.cached and answer.map_set.version == 1

    def test_overwrite_reregistration_cannot_serve_the_old_tenant(
        self, service
    ):
        """Re-registering a same-named table restarts at version 0; the
        generation component keeps its cache entries separate."""
        before = service.explore("stream", "x: [0, 1000]")
        replacement = stream_table(n=120, low=500.0)
        assert replacement.version == 0  # same (name, version) pair!
        service.register(replacement, overwrite=True)
        after = service.explore("stream", "x: [0, 1000]")
        assert not after.cached
        assert comparable(after.map_set) != comparable(before.map_set)

    def test_contexts_are_maintained_not_rebuilt(self, service):
        service.explore("stream")
        with service._registry:
            context = next(iter(service._contexts.values()))
        service.append("stream", delta())
        with service._registry:
            assert next(iter(service._contexts.values())) is context
        assert context.version == 1

    def test_lazy_sources_materialize_before_append(self):
        with ExplorationService() as svc:
            svc.register(
                {"generator": "census", "n_rows": 300, "name": "c"}
            )
            response = svc.append(
                "c",
                {
                    "Age": [40.0],
                    "Sex": ["Female"],
                    "Salary": [1.0],
                    "Education": ["PhD"],
                    "Eye color": ["Blue"],
                },
            )
            assert response.version == 1 and response.n_rows == 301


class TestAppendProtocol:
    def test_request_round_trip(self):
        request = AppendRequest(
            table="t", rows={"x": [1, 2], "label": ["a", "b"]}
        )
        assert AppendRequest.from_dict(request.to_dict()) == request

    def test_response_round_trip(self):
        response = AppendResponse(
            table="t", version=3, n_rows=10, appended=2
        )
        assert AppendResponse.from_dict(response.to_dict()) == response

    @pytest.mark.parametrize(
        "payload",
        [
            "nope",
            {},
            {"table": ""},
            {"table": "t"},
            {"table": "t", "rows": {}},
            {"table": "t", "rows": {"x": 5}},
            {"table": "t", "rows": {"x": [1], "y": [1, 2]}},
        ],
    )
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(ProtocolError):
            AppendRequest.from_dict(payload)

    def test_malformed_response_rejected(self):
        with pytest.raises(ProtocolError):
            AppendResponse.from_dict({"table": "t"})
