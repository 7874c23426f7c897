"""Hypothesis fuzz of the shard wire, both directions.

Server side: arbitrary and mutated ``/own`` and ``/scan`` bodies go to
a live shard server over real HTTP.  The only legal outcomes are a
clean 200 or a typed 4xx (``bad_request`` or ``stale_shard``); a 500
or a hang fails the test.

Coordinator side: corrupted ``/scan`` answers.  Each named corruption
must decode to a :class:`SketchError`, and a build whose server keeps
answering it must end in the typed 503 naming the server and its
shards after one retry.  Arbitrary mutations may decode or not, but
only ever fail as a :class:`SketchError`.

The tier-1 run uses a small example budget; the ``slow`` twins (run by
the scheduled full suite) use a large one.
"""

from __future__ import annotations

import base64
import copy
import http.client
import json
from urllib.parse import urlsplit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator, serve_shard
from repro.cluster.protocol import decode_scan_answer
from repro.core.config import Fidelity, Parallelism
from repro.datagen import census_table
from repro.errors import SketchError
from repro.service.protocol import ShardUnavailableError

QUICK = settings(max_examples=100, deadline=None)
FULL = settings(max_examples=500, deadline=None)

SKETCH = Fidelity.sketch(budget_rows=500)
CLUSTER = Parallelism.cluster(servers="auto", shards=8)


def b64(array: np.ndarray) -> str:
    return base64.b64encode(array.tobytes()).decode("ascii")


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #

json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """Every path into a JSON value (the root excluded)."""
    children = (
        value.items() if isinstance(value, dict)
        else enumerate(value) if isinstance(value, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(value, path):
    for key in path[:-1]:
        value = value[key]
    return value


@st.composite
def mutated(draw, body):
    """``body`` with up to three random edits: a value replaced by any
    JSON, a key or item removed, or a string (a base64 buffer,
    usually) cut short."""
    body = copy.deepcopy(body)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(body))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _parent(body, path), path[-1]
        action = draw(st.sampled_from(["replace", "delete", "truncate"]))
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent[key], str):
            parent[key] = parent[key][: draw(st.integers(0, len(parent[key])))]
    return body


@st.composite
def own_bodies(draw):
    """A well-formed /own body for a small shard of table ``t``."""
    rows = draw(st.integers(0, 24))
    low = draw(st.integers(0, 1000))
    dictionary = draw(
        st.lists(st.text(max_size=4), unique=True, min_size=1, max_size=4)
    )
    numeric = draw(st.lists(st.floats(), min_size=rows, max_size=rows))
    codes = draw(st.lists(
        st.integers(-1, len(dictionary) - 1), min_size=rows, max_size=rows
    ))
    return {
        "table": "t",
        "shard": draw(st.integers(0, 3)),
        "low": low,
        "high": low + rows,
        "version": draw(st.integers(0, 2)),
        "numeric": {"x": b64(np.asarray(numeric, dtype="<f8"))},
        "categorical": [[
            "c", draw(st.integers(1, 4)),
            b64(np.asarray(codes, dtype="<i4")), dictionary,
        ]],
    }


@st.composite
def scan_bodies(draw):
    """A /scan body for table ``t``: shard lists near the owned state."""
    shards = draw(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 12),
                  st.integers(0, 12)).map(list),
        min_size=1, max_size=4,
    ))
    return {
        "table": draw(st.sampled_from(["t", "u"])),
        "version": draw(st.integers(0, 2)),
        "fingerprint": draw(st.integers()),
        "seed": draw(st.integers(0, 2**70)),
        "budget_rows": draw(st.integers(1, 30)),
        "sample_rows": draw(st.booleans()),
        "epsilon": draw(st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True)),
        "shards": shards,
    }


hostile_own = own_bodies().flatmap(mutated) | json_values
hostile_scan = scan_bodies().flatmap(mutated) | json_values


# ---------------------------------------------------------------------- #
# Server side
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def shard_url():
    """A live server owning shard 0 = rows [0, 10) of ``t`` at v1."""
    with serve_shard() as server:
        status, _ = post(server.url, "/own", {
            "table": "t", "shard": 0, "low": 0, "high": 10, "version": 1,
            "numeric": {"x": b64(np.arange(10, dtype="<f8"))},
            "categorical": [["c", 2, b64(np.zeros(10, dtype="<i4")), ["a"]]],
        })
        assert status == 200
        yield server.url


def post(url: str, path: str, body: object) -> tuple[int, dict]:
    """One raw POST on a fresh connection; a hang raises a timeout."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=10.0
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def assert_clean_or_typed_4xx(url: str, path: str, body: object) -> None:
    status, payload = post(url, path, body)
    if status == 200:
        return
    assert 400 <= status < 500, (status, payload)
    assert payload["error"]["code"] in ("bad_request", "stale_shard"), payload


class TestServerFuzz:
    @QUICK
    @given(body=hostile_own)
    def test_own(self, shard_url, body):
        assert_clean_or_typed_4xx(shard_url, "/own", body)

    @QUICK
    @given(body=hostile_scan)
    def test_scan(self, shard_url, body):
        assert_clean_or_typed_4xx(shard_url, "/scan", body)

    @pytest.mark.slow
    @FULL
    @given(body=hostile_own)
    def test_own_large_budget(self, shard_url, body):
        assert_clean_or_typed_4xx(shard_url, "/own", body)

    @pytest.mark.slow
    @FULL
    @given(body=hostile_scan)
    def test_scan_large_budget(self, shard_url, body):
        assert_clean_or_typed_4xx(shard_url, "/scan", body)


# ---------------------------------------------------------------------- #
# Coordinator side
# ---------------------------------------------------------------------- #


def _buffer(entry: dict, key: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(entry[key]), dtype=dtype).copy()


@st.composite
def corruptions(draw):
    """One named corruption of a /scan answer, as an in-place edit."""
    kind = draw(st.sampled_from([
        "truncate", "partial_item", "size", "padding", "nan", "count",
        "g", "missing",
    ]))
    pick = draw(st.integers(0, 10**6))
    cut = draw(st.integers(1, 10**6))
    extra = draw(st.integers(1, 7))
    shift = draw(st.integers(1, 5))

    def corrupt(answer: dict) -> None:
        stats = answer["statistics"]
        entry = stats[pick % len(stats)]
        gk = entry["quantiles"][sorted(entry["quantiles"])[0]]
        if kind == "truncate":
            target = [(entry["sample"], "bitmap")] + [
                (gk, key) for key in ("values", "g", "delta")
            ]
            holder, key = target[pick % len(target)]
            text = holder[key]
            holder[key] = text[: cut % len(text)]
        elif kind == "partial_item":
            raw = base64.b64decode(gk["values"]) + b"\0" * extra
            gk["values"] = base64.b64encode(raw).decode()
        elif kind == "size":
            entry["sample"]["size"] += shift
        elif kind == "padding":
            raw = bytearray(base64.b64decode(entry["sample"]["bitmap"]))
            raw[-1] |= 1  # every shard here has a partial last byte
            entry["sample"]["bitmap"] = base64.b64encode(bytes(raw)).decode()
        elif kind == "nan":
            values = _buffer(gk, "values", "<f8")
            values[pick % len(values)] = np.nan
            gk["values"] = b64(values)
        elif kind == "count":
            gk["count"] += shift
        elif kind == "g":
            g = _buffer(gk, "g", "<i8")
            g[pick % len(g)] += shift
            gk["g"] = b64(g)
        else:
            del stats[pick % len(stats)]

    corrupt.kind = kind  # type: ignore[attr-defined]
    return corrupt


@pytest.fixture(scope="module")
def cluster():
    """Two live servers, a coordinator, the table, and one clean answer
    per server captured from a real build."""
    table = census_table(n_rows=3000, seed=7)
    servers = [serve_shard(), serve_shard()]
    coordinator = ClusterCoordinator([s.url for s in servers], timeout=10.0)
    answers: list[tuple[dict, tuple]] = []
    transport = coordinator._transports[1]
    real = transport.request

    def capture(method, path, payload=None, **kwargs):
        answer = real(method, path, payload, **kwargs)
        if path == "/scan":
            shards = tuple(tuple(shard) for shard in payload["shards"])
            answers.append((answer, shards))
        return answer

    transport.request = capture
    try:
        coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
    finally:
        del transport.request
    yield coordinator, servers, table, answers[-1]
    coordinator.close()
    for server in servers:
        server.close()


class TestCoordinatorFuzz:
    @QUICK
    @given(corrupt=corruptions())
    def test_named_corruption_is_a_sketch_error(self, cluster, corrupt):
        _, _, _, (answer, shards) = cluster
        answer = copy.deepcopy(answer)
        corrupt(answer)
        with pytest.raises(SketchError):
            decode_scan_answer(answer, shards)

    @QUICK
    @given(data=st.data())
    def test_any_mutation_decodes_or_is_a_sketch_error(self, cluster, data):
        _, _, _, (answer, shards) = cluster
        try:
            decode_scan_answer(data.draw(mutated(answer)), shards)
        except SketchError:
            pass

    @pytest.mark.slow
    @FULL
    @given(data=st.data())
    def test_any_mutation_large_budget(self, cluster, data):
        _, _, _, (answer, shards) = cluster
        try:
            decode_scan_answer(data.draw(mutated(answer)), shards)
        except SketchError:
            pass

    @settings(max_examples=16, deadline=None)
    @given(corrupt=corruptions())
    def test_persistent_corruption_is_a_503_naming_server_and_shards(
        self, cluster, corrupt
    ):
        coordinator, _, table, _ = cluster
        transport = coordinator._transports[1]
        real = transport.request
        calls = []

        def request(method, path, payload=None, **kwargs):
            answer = real(method, path, payload, **kwargs)
            if path == "/scan":
                calls.append(path)
                corrupt(answer)
            return answer

        retries_before = coordinator.metrics()["shard_retries"]
        transport.request = request
        try:
            with pytest.raises(ShardUnavailableError) as err:
                coordinator.build_backend(table, SKETCH, CLUSTER, seed=7)
        finally:
            del transport.request
        assert err.value.status == 503
        assert isinstance(err.value.__cause__, SketchError)
        assert calls == ["/scan", "/scan"]  # one retry, then the 503
        assert coordinator.metrics()["shard_retries"] == retries_before + 1
        message = str(err.value)
        assert coordinator.urls[1] in message
        for shard in range(4, 8):
            assert f"shard {shard} (rows [" in message
