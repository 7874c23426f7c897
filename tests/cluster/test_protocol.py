"""The shard wire protocol: serde symmetry and the placement math."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
    server_for_shard,
)
from repro.cluster.protocol import numeric_from_wire, numeric_to_wire
from repro.errors import MapError
from repro.service.protocol import ProtocolError


def wire_round_trip(payload: dict) -> dict:
    """What a request looks like after one HTTP hop."""
    return json.loads(json.dumps(payload))


class TestRequestSerde:
    def test_own_round_trip(self):
        request = OwnShardRequest(
            table="census",
            shard=3,
            low=100,
            high=250,
            version=2,
            numeric={"age": [1.0, float("nan"), 3.5]},
            categorical=[("sex", 2, ["M", "F", "M"])],
        )
        restored = OwnShardRequest.from_dict(
            wire_round_trip(request.to_dict())
        )
        assert restored.table == "census"
        assert (restored.shard, restored.low, restored.high) == (3, 100, 250)
        assert restored.version == 2
        assert restored.numeric["age"][0] == 1.0
        assert math.isnan(restored.numeric["age"][1])
        assert restored.categorical == [("sex", 2, ["M", "F", "M"])]

    def test_scan_round_trip(self):
        request = ScanRequest(
            table="census", shard=0, low=0, high=500, version=1,
            fingerprint=123456789, seed=7, budget_rows=2000,
            sample_rows=True, epsilon=0.005,
        )
        restored = ScanRequest.from_dict(wire_round_trip(request.to_dict()))
        assert restored == request

    def test_missing_key_is_a_protocol_error(self):
        payload = ScanRequest(
            table="t", shard=0, low=0, high=1, version=1, fingerprint=0,
            seed=0, budget_rows=10, sample_rows=False, epsilon=0.01,
        ).to_dict()
        del payload["fingerprint"]
        with pytest.raises(ProtocolError, match="fingerprint"):
            ScanRequest.from_dict(payload)

    def test_numeric_wire_round_trip_preserves_nan(self):
        values = {"x": np.asarray([1.5, np.nan, -2.0])}
        wire = wire_round_trip({"numeric": numeric_to_wire(values)})
        back = numeric_from_wire(wire["numeric"])
        assert back["x"].dtype == np.float64
        assert back["x"][0] == 1.5 and back["x"][2] == -2.0
        assert np.isnan(back["x"][1])

    def test_protocol_version_is_declared(self):
        # 2: the /append route and its request message were removed.
        assert CLUSTER_PROTOCOL_VERSION == 2


class TestServerForShard:
    def test_contiguous_blocks(self):
        assignment = [server_for_shard(i, 8, 3) for i in range(8)]
        assert assignment == [0, 0, 0, 1, 1, 1, 2, 2]

    def test_every_server_in_range_and_nondecreasing(self):
        for n_shards, n_servers in [(8, 1), (8, 8), (16, 5), (2, 4)]:
            assignment = [
                server_for_shard(i, n_shards, n_servers)
                for i in range(n_shards)
            ]
            assert all(0 <= s < n_servers for s in assignment)
            assert assignment == sorted(assignment)
            assert assignment[0] == 0

    def test_all_servers_used_when_enough_shards(self):
        assignment = {server_for_shard(i, 16, 4) for i in range(16)}
        assert assignment == {0, 1, 2, 3}

    def test_out_of_range_shard_rejected(self):
        with pytest.raises(MapError):
            server_for_shard(-1, 8, 2)
        with pytest.raises(MapError):
            server_for_shard(8, 8, 2)
