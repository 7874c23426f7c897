"""The sample bitmap: ``encode_sample`` / ``decode_sample`` round trip.

A sample of the rows ``[low, high)`` travels (in a stored summary and
in every ``/scan`` answer) as its size plus an ``np.packbits`` bitmap
over those rows; decoding returns the sorted int64 positions and
rejects a bitmap of the wrong length, set padding bits, or a count
other than the recorded size.
"""

from __future__ import annotations

import base64
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketch.state import decode_sample, encode_sample


@st.composite
def samples(draw):
    """``(positions, low, n_rows)``: any subset of ``[low, low + n_rows)``."""
    n_rows = draw(st.integers(0, 300))
    low = draw(st.sampled_from([0, 1, 7, 8, 1_000_003]))
    chosen = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=n_rows))
    return np.array(sorted(chosen), dtype=np.int64) + low, low, n_rows


def bitmap(document: dict) -> bytearray:
    return bytearray(base64.b64decode(document["bitmap"]))


def with_bitmap(document: dict, raw: bytes) -> dict:
    return {**document, "bitmap": base64.b64encode(bytes(raw)).decode()}


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(samples())
    @example((np.array([], dtype=np.int64), 0, 0))  # empty table
    @example((np.array([], dtype=np.int64), 5, 13))  # empty sample
    @example((np.arange(16, 29), 16, 13))  # every row, 13 not a multiple of 8
    @example((np.arange(8, 24), 8, 16))  # every row, whole bytes
    def test_positions_come_back(self, drawn):
        positions, low, n_rows = drawn
        document = encode_sample(positions, low, n_rows)
        assert document["size"] == len(positions)
        assert len(bitmap(document)) == (n_rows + 7) // 8
        decoded = decode_sample(document, low, low + n_rows)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == positions.tolist()


class TestErrors:
    """Each malformed bitmap fails with the message it always had."""

    DOCUMENT = staticmethod(lambda: encode_sample(np.array([10, 12, 22]), 10, 13))

    def test_padding_bits(self):
        raw = bitmap(self.DOCUMENT())
        raw[-1] |= 0b00000001  # row 15 of a 13-row bitmap
        with pytest.raises(ValueError, match="^sample bitmap sets padding bits$"):
            decode_sample(with_bitmap(self.DOCUMENT(), raw), 10, 23)

    @pytest.mark.parametrize("n_bytes", [0, 1, 3])
    def test_length(self, n_bytes):
        document = with_bitmap(self.DOCUMENT(), bytes(n_bytes))
        message = f"sample bitmap has {n_bytes} bytes for 13 rows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_sample(document, 10, 23)

    @pytest.mark.parametrize("size", [2, 4, 0])
    def test_count(self, size):
        document = {**self.DOCUMENT(), "size": size}
        message = f"sample bitmap holds 3 rows, not {size}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decode_sample(document, 10, 23)

    def test_an_extra_bit_is_a_count_error(self):
        raw = bitmap(self.DOCUMENT())
        raw[0] |= 0b01000000  # row 11
        with pytest.raises(ValueError, match="^sample bitmap holds 4 rows, not 3$"):
            decode_sample(with_bitmap(self.DOCUMENT(), raw), 10, 23)
