"""The shard wire protocol: serde symmetry, the buffer codec, and the
placement math."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_PROTOCOL_VERSION,
    OwnShardRequest,
    ScanRequest,
    server_for_shard,
)
from repro.cluster.protocol import (
    decode_scan_answer,
    encode_scan_answer,
)
from repro.datagen import census_table
from repro.engine.parallel import (
    ShardedTable,
    _sketch_attributes,
    scan_shard_values,
    shard_column_values,
)
from repro.errors import MapError, SketchError
from repro.service.protocol import ProtocolError


def wire_round_trip(payload: dict) -> dict:
    """What a request looks like after one HTTP hop."""
    return json.loads(json.dumps(payload))


def scan_request(**overrides) -> ScanRequest:
    fields = dict(
        table="census", version=1, fingerprint=123456789, seed=7,
        budget_rows=2000, sample_rows=True, epsilon=0.005,
        shards=((0, 0, 500), (1, 500, 1000)),
    )
    fields.update(overrides)
    return ScanRequest(**fields)


class TestRequestSerde:
    def test_own_round_trip(self):
        request = OwnShardRequest(
            table="census",
            shard=3,
            low=100,
            high=103,
            version=2,
            numeric={"age": np.asarray([1.0, 2.0, 3.5])},
            categorical=(
                ("sex", 2, (np.asarray([0, -1, 1], dtype=np.int32),
                            ["M", "F"])),
            ),
        )
        restored = OwnShardRequest.from_dict(
            wire_round_trip(request.to_dict())
        )
        assert restored.table == "census"
        assert (restored.shard, restored.low, restored.high) == (3, 100, 103)
        assert restored.version == 2
        assert restored.numeric["age"].tolist() == [1.0, 2.0, 3.5]
        ((name, capacity, (codes, dictionary)),) = restored.categorical
        assert (name, capacity, dictionary) == ("sex", 2, ["M", "F"])
        assert codes.dtype == np.int32 and codes.tolist() == [0, -1, 1]

    def test_scan_round_trip(self):
        request = scan_request()
        restored = ScanRequest.from_dict(wire_round_trip(request.to_dict()))
        assert restored == request

    def test_missing_key_is_a_protocol_error(self):
        payload = scan_request().to_dict()
        del payload["fingerprint"]
        with pytest.raises(ProtocolError, match="fingerprint"):
            ScanRequest.from_dict(payload)

    def test_numeric_wire_round_trip_preserves_nan(self):
        values = np.asarray([1.5, np.nan, -2.0, -0.0, np.inf])
        request = OwnShardRequest(
            table="t", shard=0, low=0, high=5, version=0,
            numeric={"x": values}, categorical=(),
        )
        back = OwnShardRequest.from_dict(
            wire_round_trip(request.to_dict())
        ).numeric["x"]
        assert back.dtype == np.float64
        assert back.tobytes() == values.tobytes()  # bit for bit, NaN too

    def test_protocol_version_is_declared(self):
        # 3: one /scan per server, numpy buffers on the wire.
        assert CLUSTER_PROTOCOL_VERSION == 3


class TestScanAnswerCodec:
    """A scan answer decodes to exactly the statistics that were
    encoded; any inconsistency is a SketchError."""

    @pytest.fixture(scope="class")
    def scanned(self):
        table = census_table(n_rows=1000, seed=5)
        numeric, categorical = _sketch_attributes(table)
        shards = tuple(
            (index, low, high)
            for index, (low, high) in enumerate(ShardedTable(table, 3).bounds)
        )
        statistics = []
        for index, low, high in shards:
            values, codes = shard_column_values(
                table, low, high, numeric, categorical
            )
            statistics.append(scan_shard_values(
                index=index, low=low, n_rows=high - low, seed=3,
                fingerprint=9, budget_rows=100, sample_rows=True,
                epsilon=0.01, numeric=values, categorical=codes,
            ))
        request = scan_request(shards=shards)
        return request, statistics

    def answer(self, scanned) -> dict:
        request, statistics = scanned
        return wire_round_trip(encode_scan_answer(request, statistics))

    def test_round_trip_is_exact(self, scanned):
        request, statistics = scanned
        decoded = decode_scan_answer(self.answer(scanned), request.shards)
        for before, after in zip(statistics, decoded):
            assert after.provenance["shard"] == before.provenance["shard"]
            assert after.n_rows == before.n_rows
            assert after.sample.dtype == np.int64
            assert after.sample.tolist() == before.sample.tolist()
            for attribute, sketch in before.quantiles.items():
                assert after.quantiles[attribute].to_dict() == (
                    sketch.to_dict()
                )
            for attribute, sketch in before.frequencies.items():
                assert after.frequencies[attribute].to_dict() == (
                    sketch.to_dict()
                )
            assert after.provenance["kernel_nanos"] == (
                before.provenance["kernel_nanos"]
            )

    def test_sample_bitmap_is_one_bit_per_row(self, scanned):
        request, _ = scanned
        entry = self.answer(scanned)["statistics"][0]
        _, low, high = request.shards[0]
        bitmap = base64.b64decode(entry["sample"]["bitmap"])
        assert len(bitmap) == (high - low + 7) // 8

    @pytest.mark.parametrize("corrupt, match", [
        (lambda a: a["statistics"].pop(), "statistics for"),
        (lambda a: a["statistics"].reverse(), "shard 2"),
        (lambda a: a["statistics"][0]["sample"].update(size=1), "not 1"),
        (lambda a: a["statistics"][0]["sample"].update(bitmap="AAA"),
         "base64"),
        (lambda a: a["statistics"][0]["quantiles"]["Age"].update(
            values=base64.b64encode(b"\0" * 12).decode()), "whole number"),
        (lambda a: a["statistics"][0]["quantiles"]["Age"].update(
            count=1), "sum to count"),
        (lambda a: a["statistics"][0]["quantiles"]["Age"].update(
            g=base64.b64encode(b"").decode()), "shape"),
        (lambda a: a["statistics"][0]["frequencies"]["Sex"].update(
            capacity=0), "capacity"),
        (lambda a: a["statistics"][0].pop("quantiles"), "quantiles"),
    ])
    def test_corruption_is_a_sketch_error(self, scanned, corrupt, match):
        request, _ = scanned
        answer = self.answer(scanned)
        corrupt(answer)
        with pytest.raises(SketchError, match=match):
            decode_scan_answer(answer, request.shards)

    def test_padding_bits_are_rejected(self, scanned):
        request, _ = scanned
        answer = self.answer(scanned)
        sample = answer["statistics"][0]["sample"]
        raw = bytearray(base64.b64decode(sample["bitmap"]))
        _, low, high = request.shards[0]
        assert (high - low) % 8, "the fixture needs a partial last byte"
        raw[-1] |= 1  # the last bit is past the shard's rows
        sample["bitmap"] = base64.b64encode(bytes(raw)).decode()
        with pytest.raises(SketchError, match="padding"):
            decode_scan_answer(answer, request.shards)


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
