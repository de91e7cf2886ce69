"""The encoder writes only streams its decoder accepts, and the signed-code
reader walks hostile sections in memory bounded by its jump-table chunk."""
import struct
import tracemalloc
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from fratio import bitio
from fratio.bitio import BitReader, BitWriter, MalformedStreamError
from fratio.codec import MAGIC, VERSION, Descriptor, _varint, rd_decode
from test_codec_format import _library_read_signed, _reader_inputs, _reference_read_signed


def _descriptor(k, support=(0, 1, 2), q_re=(1, 2, 3), q_im=(0, 0, 0)):
    return Descriptor((8,), "dft", k, 1.0, 0.2, support=np.array(support), q_re=np.array(q_re), q_im=np.array(q_im))


class TestLengthsMatchK:
    @pytest.mark.parametrize(
        "fields",
        [dict(k=2), dict(k=4), dict(k=3, support=(0, 1)), dict(k=3, q_re=(1, 2)), dict(k=3, q_im=(0, 0, 0, 0))],
    )
    def test_serialize_and_decode_refuse_a_k_that_is_not_the_length(self, fields):
        d = _descriptor(**fields)
        with pytest.raises(ValueError, match=f"k = {d.k} is not the length of the support, q_re and q_im"):
            d.serialize()
        with pytest.raises(ValueError, match=f"k = {d.k} is not the length of the support, q_re and q_im"):
            rd_decode(d)

    def test_a_consistent_descriptor_round_trips(self):
        d = _descriptor(3)
        back = Descriptor.deserialize(d.serialize())
        assert back.serialize() == d.serialize()
        assert np.array_equal(rd_decode(d).values, rd_decode(d.serialize()).values)


class TestHeaderVarints:
    def test_an_empty_factor_list_is_malformed(self):
        with pytest.raises(MalformedStreamError, match="empty factor list"):
            Descriptor.deserialize(MAGIC + bytes([VERSION]) + _varint(0))

    def test_a_varint_past_64_bits_is_malformed(self):
        with pytest.raises(MalformedStreamError, match="varint too long"):
            Descriptor.deserialize(MAGIC + bytes([VERSION]) + b"\xff" * 10 + b"\x01")


class TestFixedWidthCap:
    def test_a_65_bit_field_is_not_written(self):
        with pytest.raises(ValueError, match="fixed-width fields hold at most 64 bits, not 65"):
            BitWriter().write_fixed_array([1], 65)

    def test_a_65_bit_field_is_not_read(self):
        with pytest.raises(ValueError, match="fixed-width fields hold at most 64 bits, not 65"):
            BitReader(bytes(16)).read_fixed_array(1, 65)


class TestChunkedWalk:
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(_reader_inputs())
    def test_one_word_chunks_match_the_reference_decoder(self, case):
        data, skip, count = case
        bits = "".join(format(b, "08b") for b in data)
        with mock.patch.object(bitio, "_CHUNK_WORDS", 1):
            assert _library_read_signed(data, skip, count) == _reference_read_signed(bits, skip, count)

    def test_a_section_of_many_chunks_reads_back(self):
        rng = np.random.default_rng(24)
        values = rng.integers(-(2**62), 2**62, size=20000) >> rng.integers(0, 62, size=20000)
        w = BitWriter()
        w.write_fixed_array([5], 3)
        w.write_signed_array(values)
        stream = w.to_bytes()
        assert len(stream) > 3 * 8 * bitio._CHUNK_WORDS
        reader = BitReader(stream)
        reader.read_fixed_array(1, 3)
        assert np.array_equal(reader.read_signed_array(values.size), values)
        reader.check_end()


def test_hostile_signed_section_fails_in_bounded_memory():
    # dft:1048576 with k = 2^20: all-ones support indices, then 1 MiB of ones
    k = 1 << 20
    header = MAGIC + bytes([VERSION]) + _varint(1) + _varint(k) + bytes([0]) + _varint(k)
    blob = header + struct.pack(">dd", 1.0, 0.2) + b"\xff" * (20 * k // 8 + (1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedStreamError, match="signed width prefix too long"):
            Descriptor.deserialize(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
