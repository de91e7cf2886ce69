"""A Descriptor is refused when it is built unless it has a stream the decoder
accepts, and the signed-code reader walks hostile sections in memory bounded
by its jump-table chunk."""
import math
import struct
import tracemalloc
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fratio import bitio
from fratio.bitio import BitReader, BitWriter, MalformedStreamError
from fratio.codec import MAGIC, VERSION, Descriptor, _varint, rd_decode
from fratio.systems import SYSTEMS
from test_codec_format import _header, _library_read_signed, _reader_inputs, _reference_read_signed, _same


def _descriptor(support=(0, 1, 2), q_re=(1, 2, 3), q_im=(0, 0, 0), factors=(8,), label="dft"):
    return Descriptor(factors, label, 1.0, 0.2, support=np.array(support), q_re=np.array(q_re), q_im=np.array(q_im))


class TestLengthsMatchK:
    @pytest.mark.parametrize(
        "fields",
        [dict(support=(0, 1)), dict(support=(0, 1, 2, 3)), dict(q_re=(1, 2)), dict(q_im=(0, 0, 0, 0))],
    )
    def test_lengths_that_differ_are_refused_at_construction(self, fields):
        with pytest.raises(ValueError, match="support, q_re and q_im differ in length"):
            _descriptor(**fields)

    def test_a_consistent_descriptor_round_trips(self):
        d = _descriptor()
        assert d.k == 3
        back = Descriptor.deserialize(d.serialize())
        assert back.serialize() == d.serialize()
        assert np.array_equal(rd_decode(d).values, rd_decode(d.serialize()).values)


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(factors=(6,), support=(7,), q_re=(1,), q_im=(0,)), r"each index in \[0, 6\)"),
        (dict(support=(-1,), q_re=(1,), q_im=(0,)), r"each index in \[0, 8\)"),
        (dict(factors=(6,), label="haar"), "haar needs one factor of power-of-two length"),
        (dict(label="foo"), "unknown system label 'foo'"),
        (dict(support=(0.0, 1.0, 2.0)), "integer type"),
        (dict(q_re=(1.0, 2.0, 3.0)), "integer type"),
        (dict(q_im=np.array([0, 0, 2**63], dtype=np.uint64)), "integer type that int64 holds"),
        (dict(support=((0, 1, 2),)), "1-D arrays"),
        (dict(factors=(2,), support=(0, 0, 1)), "k = 3 indices must have k <= 2"),
        (dict(support=(0, 1)), "differ in length"),
        (dict(support=(0, 3, 3)), "strictly increasing"),
        (dict(support=(2, 1, 0)), "strictly increasing"),
        (dict(factors=(8.0,)), "cyclic factors must be integers, got 8.0"),
        (dict(factors=(2.5,)), "cyclic factors must be integers, got 2.5"),
    ],
    ids=["index 7 on 6", "index -1", "haar on 6", "label foo", "float support", "float codes", "uint64 codes",
         "2-D support", "k 3 on 2", "lengths differ", "repeated index", "decreasing support", "factor 8.0",
         "factor 2.5"],
)
def test_a_descriptor_with_no_stream_is_refused_at_construction(fields, message):
    with pytest.raises(ValueError, match=message):
        _descriptor(**fields)


def test_a_stream_with_a_repeated_index_is_malformed():
    # dft:8 with k = 2: support [3, 3], codes (1, 0) and (5, 0)
    blob = _header((8,), k=2).fixed(3, 3).fixed(3, 3).signed(1).signed(0).signed(5).signed(0).to_bytes()
    with pytest.raises(MalformedStreamError, match="strictly increasing"):
        Descriptor.deserialize(blob)
    with pytest.raises(MalformedStreamError, match="strictly increasing"):
        rd_decode(blob)


_DTYPES = st.sampled_from([np.int64, np.int8, np.uint32, np.uint64, np.float64, np.bool_])
_FINITE = st.floats(-1e6, 1e6)
_VALID = [((1,), "dft"), ((8,), "dft"), ((2, 3), "dft"), ((2,), "wht"), ((2, 2), "wht"), ((4, 4), "gabor"), ((8,), "haar")]


@st.composite
def _fields(draw):
    """Descriptor fields: a label that lives on its group, finite floats and
    int64 arrays of one length k with increasing indices in [0, 8); or each
    field from a wider range, arrays of any shape and type among them."""
    wide = draw(st.booleans())
    k = draw(st.integers(0, 5))

    def array(elements, increasing=False):
        exact = st.lists(elements, min_size=k, max_size=k, unique=increasing)
        exact = exact.map(lambda v: np.array(sorted(v) if increasing else v, dtype=np.int64))
        shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5)
        return draw(exact | hnp.arrays(_DTYPES, shapes) if wide else exact)

    floats = _FINITE | st.sampled_from([math.nan, math.inf, -math.inf]) if wide else _FINITE
    group_and_label = st.tuples(st.sampled_from([g for g, _ in _VALID]), st.sampled_from([*SYSTEMS, "foo"]))
    factors, label = draw(group_and_label if wide else st.sampled_from(_VALID))
    return dict(
        factors=factors,
        label=label,
        coeff_l2=draw(floats),
        eps=draw(floats),
        support=array(st.integers(-1, 8)) if wide else array(st.integers(0, 7), increasing=True),
        q_re=array(st.integers(-(2**63), 2**63 - 1)),
        q_im=array(st.integers(-(2**63), 2**63 - 1)),
    )


@settings(max_examples=400, deadline=timedelta(seconds=2))
@given(_fields())
def test_a_descriptor_is_refused_or_round_trips(fields):
    try:
        d = Descriptor(**fields)
    except ValueError:
        return
    blob = d.serialize()
    assert _same(Descriptor.deserialize(blob), d)
    assert rd_decode(d).values.tobytes() == rd_decode(blob).values.tobytes()


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

    @pytest.mark.parametrize("chunk_words", [1, bitio._CHUNK_WORDS])
    def test_a_section_of_many_chunks_reads_back(self, chunk_words):
        rng = np.random.default_rng(24)
        values = rng.integers(-(2**62), 2**62, size=20000) >> rng.integers(0, 62, size=20000)
        w = BitWriter()
        w.write_fixed_array([5], 3)
        w.write_signed_array(values)
        stream = w.to_bytes()
        assert len(stream) > 3 * 8 * bitio._CHUNK_WORDS
        with mock.patch.object(bitio, "_CHUNK_WORDS", chunk_words):
            reader = BitReader(stream)
            reader.read_fixed_array(1, 3)
            assert np.array_equal(reader.read_signed_array(values.size), values)
            reader.check_end()

    @pytest.mark.parametrize("chunk_words", [1, bitio._CHUNK_WORDS])
    @pytest.mark.parametrize("nbits", [2**12, 2**31, 2**32, 2**33, 2**40])
    def test_a_prefix_of_ones_past_the_table_is_refused_at_any_stream_length(self, chunk_words, nbits):
        # the window of a signed section at the domain cap, 2^25 codes of up
        # to 128 bits, reaches 2^32 bits; only its first words are built here
        count = min(nbits // 2, 2**25)
        reader = BitReader(b"")
        reader._size = nbits
        reader._words = lambda n: np.full(chunk_words + 2, 2**64 - 1, dtype=np.uint64)
        jumps, bases = bitio._jumps, []

        def one_table(words, base):
            bases.append(base)
            assert len(bases) == 1, f"the walk went on to tables at pairs {bases}"
            return jumps(words, base)

        with mock.patch.object(bitio, "_CHUNK_WORDS", chunk_words), mock.patch.object(bitio, "_jumps", one_table):
            with pytest.raises(MalformedStreamError, match="signed width prefix too long"):
                reader.read_signed_array(count)


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
