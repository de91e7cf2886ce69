"""A Descriptor is refused when it is built unless it has a stream the decoder
accepts, and the signed-code readers read long and hostile sections in
memory that follows the count read: version 2 unpacks its prefix section in
chunks of _SCAN_BYTES bytes."""
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
from fratio.bitio import BitReader, BitWriter, MalformedStreamError, signed_widths
from fratio.codec import MAGIC, VERSION, Descriptor, _varint, rd_decode
from fratio.systems import SYSTEMS
from test_codec_format import (
    _Bits,
    _bits_to_bytes,
    _header,
    _layout,
    _library_read_signed,
    _read,
    _reader_inputs,
    _reference_read_signed,
    _reference_signed_bits,
    _same,
)


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


def _scan_bytes(nbytes: int):
    """Unpack version 2 prefix sections nbytes at a time."""
    return mock.patch.object(bitio, "_SCAN_BYTES", nbytes)


_SHORT = st.integers(1, 10).flatmap(lambda w: st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1))


@st.composite
def _walk_inputs(draw, version: int = 1):
    """(stream bytes, skip, count) for a section of many short codes: cut at
    any bit, or with a prefix of 64 ones or more before any code, and a count
    up to 9 off the codes written."""
    values = draw(st.lists(_SHORT, min_size=1, max_size=120))
    at = draw(st.integers(0, len(values)))
    ones = draw(st.sampled_from([0, 64, 65, 100]))
    codes = list(map(_reference_signed_bits, values))
    # code at's prefix starts after the codes before it, or in version 2
    # after their prefixes, which are half their bits
    before = sum(map(len, codes[:at])) // version
    codes = _layout(codes, version)
    codes = codes[:before] + "1" * ones + codes[before:]
    codes = codes[: draw(st.integers(0, len(codes)))] if draw(st.booleans()) else codes
    skip = draw(st.integers(0, 63))
    filler = draw(st.integers(0, 2**skip - 1))
    data = _bits_to_bytes(format(filler, f"0{skip}b")[:skip] + codes)
    return data, skip, max(len(values) + draw(st.integers(-9, 9)), 0)


class TestLongSections:
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(_reader_inputs(2))
    def test_one_byte_chunks_match_the_reference_decoder(self, case):
        data, skip, count = case
        bits = "".join(format(b, "08b") for b in data)
        with _scan_bytes(1):
            assert _library_read_signed(data, skip, count, 2) == _reference_read_signed(bits, skip, count, 2)

    @pytest.mark.parametrize("version", [1, 2])
    @settings(max_examples=400, deadline=timedelta(seconds=2))
    @given(data=st.data(), scan_bytes=st.sampled_from([1, 2, bitio._SCAN_BYTES]))
    def test_many_short_codes_match_the_reference_decoder(self, version, data, scan_bytes):
        stream, skip, count = data.draw(_reader_inputs(version) | _walk_inputs(version))
        bits = "".join(format(b, "08b") for b in stream)
        with _scan_bytes(scan_bytes):
            assert _library_read_signed(stream, skip, count, version) == _reference_read_signed(bits, skip, count, version)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("scan_bytes", [1, bitio._SCAN_BYTES])
    def test_short_codes_match_at_every_cut(self, scan_bytes, version):
        # 8k + 3 codes of widths 1 to 4, cut at every bit: the cut falls in
        # each code, and in version 2 in each prefix and each payload
        values = [(-1) ** j * (j % 7) for j in range(8 * 5 + 3)]
        codes = _layout(list(map(_reference_signed_bits, values)), version)
        with _scan_bytes(scan_bytes):
            for cut in range(len(codes) + 1):
                skip = -cut % 8
                data = _bits_to_bytes("0" * skip + codes[:cut])
                bits = "".join(format(b, "08b") for b in data)
                for count in (len(values), len(values) - 3):
                    expected = _reference_read_signed(bits, skip, count, version)
                    assert _library_read_signed(data, skip, count, version) == expected

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("scan_bytes", [1, bitio._SCAN_BYTES])
    @pytest.mark.parametrize("before", [0, 5, 8, 13])
    def test_a_wide_prefix_among_short_codes_is_refused(self, scan_bytes, before, version):
        values = [3, -2, 0, 1] * 8
        codes = list(map(_reference_signed_bits, values))
        # in version 2, the wide prefix follows the prefixes of the codes before it
        bits = _layout(codes[:before], version)[: sum(map(len, codes[:before])) // version]
        bits += "1" * 70 + "0" * 80 + _layout(codes, version)
        with _scan_bytes(scan_bytes):
            assert _library_read_signed(_bits_to_bytes(bits), 0, 24, version) == "signed width prefix too long"

    def test_short_codes_read_back_at_every_length(self):
        # a version 1 section of 20003 short codes cut near every 4 KiB and
        # in its last codes: the codes that fit read back, and one more is cut
        rng = np.random.default_rng(30)
        values = rng.integers(-(2**7), 2**7, size=20003) >> rng.integers(0, 8, size=20003)
        stream = _Bits().fixed(5, 3).codes(values, 1).to_bytes()
        assert len(stream) > 2 * 8 * 512
        ends = 3 + np.cumsum(2 * signed_widths(values))
        assert _library_read_signed(stream, 3, values.size) == (values.tolist(), ends[-1])
        cuts = [n for t in range(1, 4) for n in range(8 * 512 * t - 2, 8 * 512 * t + 3)]
        for nbytes in [*cuts, *range(len(stream) - 12, len(stream))]:
            fit = int(np.searchsorted(ends, 8 * nbytes, side="right"))
            assert _library_read_signed(stream[:nbytes], 3, fit) == (values[:fit].tolist(), ends[fit - 1])
            assert _library_read_signed(stream[:nbytes], 3, fit + 1) == "stream truncated"

    @pytest.mark.parametrize("scan_bytes", [2**10, bitio._SCAN_BYTES])
    def test_short_codes_across_chunks_read_back_or_are_cut(self, scan_bytes):
        # a version 2 section of 20003 short codes read in chunks, and cut
        # near the chunk ends of its prefix section and in its payloads
        rng = np.random.default_rng(30)
        values = rng.integers(-(2**7), 2**7, size=20003) >> rng.integers(0, 8, size=20003)
        w = BitWriter()
        w.write_fixed_array([5], 3)
        w.write_signed_sections(values)
        stream = w.to_bytes()
        end = 3 + 2 * int(signed_widths(values).sum())
        with _scan_bytes(scan_bytes):
            assert _library_read_signed(stream, 3, values.size, 2) == (values.tolist(), end)
            cuts = [n for t in range(1, 4) for n in range(scan_bytes * t - 2, scan_bytes * t + 3) if 0 < n < len(stream)]
            for nbytes in [*cuts, *range(len(stream) - 12, len(stream))]:
                assert _library_read_signed(stream[:nbytes], 3, values.size, 2) == "stream truncated"

    @pytest.mark.parametrize("scan_bytes", [2**8, bitio._SCAN_BYTES])
    def test_a_section_of_many_chunks_reads_back(self, scan_bytes):
        rng = np.random.default_rng(24)
        values = rng.integers(-(2**62), 2**62, size=20000) >> rng.integers(0, 62, size=20000)
        w = BitWriter()
        w.write_fixed_array([5], 3)
        w.write_signed_sections(values)
        streams = {1: _Bits().fixed(5, 3).codes(values, 1).to_bytes(), 2: w.to_bytes()}
        assert signed_widths(values).sum() > 2 * 8 * bitio._SCAN_BYTES  # a prefix section of 3 chunks
        with _scan_bytes(scan_bytes):
            for version, stream in streams.items():
                reader = BitReader(stream)
                reader.read_fixed_array(1, 3)
                assert np.array_equal(_read(reader, values.size, version), values)
                reader.check_end()

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("nbits", [2**12, 2**31, 2**32, 2**33, 2**40])
    def test_a_prefix_of_ones_is_refused_at_any_stream_length(self, version, nbits):
        # the window of a signed section at the domain cap, 2^25 codes of up
        # to 128 bits, reaches 2^32 bits; only its first bits are here, and a
        # read past them raises another error
        count = min(nbits // 2, 2**25)
        reader = BitReader(b"\xff" * (bitio._SCAN_BYTES + 1))
        reader._size = nbits
        windows = []
        reader._words = lambda n: windows.append(n) or np.full(3, 2**64 - 1, dtype=np.uint64)
        with pytest.raises(MalformedStreamError, match="signed width prefix too long"):
            _read(reader, count, version)
        assert windows == ([min(nbits, 128 * count)] if version == 1 else [])


@pytest.mark.parametrize(
    "version,fill,message,peak_bound",
    [
        (1, b"\xff", "signed width prefix too long", 64e6),
        (2, b"\xff", "signed width prefix too long", 53.0e6),
        (2, b"\x00", "trailing bytes after the stream", 160.8e6),
    ],
    ids=["v1 all ones", "v2 all ones", "v2 all zeros"],
)
def test_hostile_signed_section_fails_in_bounded_memory(version, fill, message, peak_bound):
    # dft:1048576 with k = 2^20: support indices of all ones or all zeros,
    # then 1 MiB more of the same; an all-zero version 1 body walks 2^21
    # codes one at a time, too slowly to trace
    k = 1 << 20
    header = MAGIC + bytes([version]) + _varint(1) + _varint(k) + bytes([0]) + _varint(k)
    blob = header + struct.pack(">dd", 1.0, 0.2) + fill * (20 * k // 8 + (1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(MalformedStreamError, match=message):
            Descriptor.deserialize(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_bound
