"""The FRRD stream format, versions 1 and 2: pinned streams, the bit account, and hostile input.

``data/pinned_streams.json`` holds version 1 streams written by the
bit-at-a-time codec that preceded the array codec: rd_encode outputs per
system (with their bit accounts) and hand-made edge descriptors (k = 0, k = M,
index width 0, negative and zero q, |q| near 2^62 and at the int64 ends).
Each must still decode to its descriptor, and the codec must write, byte for
byte, the same codes laid out as version 2 (``_relayout``, from the format's
definition).
"""
import json
import math
import struct
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fratio import Signal, parse_system
from fratio.bitio import BitReader, BitWriter, MalformedStreamError, signed_widths
from fratio.codec import MAGIC, VERSION, Descriptor, _account, _ByteCursor, _varint, rd_decode, rd_encode
from fratio.groups import MAX_DOMAIN_SIZE
from fratio.signals import generate_signal

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_streams.json").read_text())
ENCODED = [case for case in PINNED if "encode" in case]
HANDMADE = [case for case in PINNED if "encode" not in case]


def _descriptor(case) -> Descriptor:
    d = Descriptor(
        factors=tuple(case["factors"]),
        label=case["label"],
        coeff_l2=float.fromhex(case["coeff_l2"]),
        eps=float.fromhex(case["eps"]),
        support=np.array(case["support"], dtype=np.int64),
        q_re=np.array(case["q_re"], dtype=np.int64),
        q_im=np.array(case["q_im"], dtype=np.int64),
    )
    assert d.k == case["k"]
    return d


def _same(a: Descriptor, b: Descriptor) -> bool:
    return (a.factors, a.label, a.k, a.coeff_l2, a.eps) == (b.factors, b.label, b.k, b.coeff_l2, b.eps) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in ("support", "q_re", "q_im")
    )


def _encode(case):
    spec = case["encode"]
    system = parse_system(spec["system"])
    f = generate_signal(system, spec["signal"], seed=spec["seed"])
    return rd_encode(system, f, spec["eps"])


def _header(factors, label_code=0, k=0, coeff_l2=1.0, eps=0.2, version=1) -> "_Bits":
    w = _Bits().bytes(MAGIC).fixed(version, 8).varint(len(factors))
    for n in factors:
        w.varint(n)
    return w.fixed(label_code, 8).varint(k).float64(coeff_l2).float64(eps)


class TestPinnedStreams:
    @pytest.mark.parametrize("case", HANDMADE, ids=lambda c: c["name"])
    def test_handmade_descriptor_stream(self, case):
        d = _descriptor(case)
        v1, v2 = bytes.fromhex(case["stream"]), d.serialize()
        assert _same(Descriptor.deserialize(v1), d)
        assert v2 == _relayout(v1, 2) and len(v2) == len(v1) and _relayout(v2, 1) == v1
        assert _same(Descriptor.deserialize(v2), d)
        assert rd_decode(v2).values.tobytes() == rd_decode(v1).values.tobytes()

    @pytest.mark.parametrize("case", ENCODED, ids=lambda c: c["name"])
    def test_encoded_stream_and_account(self, case):
        d, account = _encode(case)
        v1, v2 = bytes.fromhex(case["stream"]), d.serialize()
        assert _same(Descriptor.deserialize(v1), d)
        assert v2 == _relayout(v1, 2) and len(v2) == len(v1)
        assert rd_decode(v2).values.tobytes() == rd_decode(v1).values.tobytes()
        parts = {key: getattr(account, key) for key in case["bit_account"]}
        assert parts == case["bit_account"]

    @pytest.mark.parametrize("case", [c for c in HANDMADE if math.prod(c["factors"]) >= 2], ids=lambda c: c["name"])
    def test_account_total_matches_stream(self, case):
        d = _descriptor(case)
        account = _account(d, r=1.0)
        assert account.total == 8 * len(d.serialize())
        assert account.total == account.header_bits + account.support_bits + account.coefficient_bits
        assert all(type(getattr(account, key)) is int for key in ("header_bits", "support_bits", "coefficient_bits", "total"))


def _reference_signed_bits(v: int) -> str:
    """The signed code of v, one bit at a time, from its definition."""
    width = max(1, v.bit_length() + 1) if v >= 0 else (-v - 1).bit_length() + 1
    return "1" * (width - 1) + "0" + format(v & ((1 << width) - 1), f"0{width}b")


def _layout(codes: list[str], version: int) -> str:
    """Signed codes, each its prefix then its payload, as a version lays them
    out: back to back (1), or every prefix, then every payload (2)."""
    if version == 1:
        return "".join(codes)
    return "".join(c[: len(c) // 2] for c in codes) + "".join(c[len(c) // 2 :] for c in codes)


class _Bits:
    """Stream fields as a bit string, each written from the format's definition.

    Hostile and hand-coded streams are built here rather than with the
    library's writer, so the tests check the codec against an independent
    oracle.  ``to_bytes`` pads with zero bits to a byte boundary.
    """

    def __init__(self):
        self.bits = ""

    def raw(self, bits: str) -> "_Bits":
        self.bits += bits
        return self

    def fixed(self, value: int, nbits: int) -> "_Bits":
        assert 0 <= value < 2**nbits
        return self.raw(format(value, f"0{nbits}b") if nbits else "")

    def bytes(self, data: bytes) -> "_Bits":
        return self.raw("".join(format(b, "08b") for b in data))

    def varint(self, value: int) -> "_Bits":
        # 7-bit groups, low first; every byte but the last has its high bit set
        groups = [(value >> shift) & 0x7F for shift in range(0, max(1, value.bit_length()), 7)]
        return self.bytes(bytes([0x80 | g for g in groups[:-1]] + groups[-1:]))

    def float64(self, value: float) -> "_Bits":
        return self.bytes(struct.pack(">d", value))

    def signed(self, value: int) -> "_Bits":
        return self.raw(_reference_signed_bits(value))

    def codes(self, values, version: int) -> "_Bits":
        return self.raw(_layout([_reference_signed_bits(int(v)) for v in values], version))

    def to_bytes(self) -> bytes:
        padded = self.bits + "0" * (-len(self.bits) % 8)
        return int(padded or "0", 2).to_bytes(len(padded) // 8, "big")


def _relayout(stream: bytes, version: int) -> bytes:
    """stream under the version byte version, its signed codes laid out as that
    version lays them out: read and written one bit at a time, from the
    format's definition."""
    head = _ByteCursor(stream)
    head.take(4)
    was = head.take(1)[0]
    factors = [head.varint() for _ in range(head.varint())]
    head.take(1)
    k = head.varint()
    head.take(16)
    bits = "".join(format(b, "08b") for b in stream[head.pos :])
    support = k * (math.prod(factors) - 1).bit_length()
    values, _ = _reference_read_signed(bits, support, 2 * k, was)
    body = _Bits().bytes(stream[:4] + bytes([version]) + stream[5 : head.pos]).raw(bits[:support])
    return body.codes(values, version).to_bytes()


def _reference_read_signed(bits: str, pos: int, count: int, version: int = 1):
    """count signed codes from bit pos of a bit string, laid out as version
    lays them out, one bit at a time: the values and the end position, or
    the MalformedStreamError message.

    The checks come in the reader's order: count codes need 2 * count bits;
    then, prefix by prefix, 64 ones are too long, and a prefix or (in version
    1) the payload after it past the end is truncated; in version 2 the
    payload section past the end is truncated next; only after every code is
    delimited is a code wider than its value's minimal width refused.
    """
    if 2 * count > len(bits) - pos:
        return "stream truncated"
    widths, payloads = [], []
    for _ in range(count):
        ones = 0
        while ones < 64 and pos + ones < len(bits) and bits[pos + ones] == "1":
            ones += 1
        if ones == 64:
            return "signed width prefix too long"
        width = ones + 1
        end = pos + (2 * width if version == 1 else width)
        if end > len(bits):
            return "stream truncated"
        if version == 1:
            payloads.append(bits[pos + width : end])
        widths.append(width)
        pos = end
    if version == 2:
        if pos + sum(widths) > len(bits):
            return "stream truncated"
        for width in widths:
            payloads.append(bits[pos : pos + width])
            pos += width
    values, wide = [], False
    for payload in payloads:
        width, bits_value = len(payload), int(payload, 2)
        value = bits_value - (bits_value >> (width - 1) << width)
        wide |= width > 1 and -(1 << (width - 2)) <= value < 1 << (width - 2)
        values.append(value)
    if wide:
        return "signed code wider than the minimal width of its value"
    return values, pos


_READERS = {1: "read_signed_array", 2: "read_signed_sections"}


def _read(reader: BitReader, count: int, version: int) -> np.ndarray:
    return getattr(reader, _READERS[version])(count)


# each pinned stream, as pinned (version 1) and in the version 2 layout
PINNED_STREAMS = {1: [bytes.fromhex(case["stream"]) for case in PINNED]}
PINNED_STREAMS[2] = [_relayout(blob, 2) for blob in PINNED_STREAMS[1]]


def _marked(writer: BitWriter) -> bytes:
    """writer's stream with a closing 1 bit, so equal bytes mean equal bit lengths too."""
    writer.write_fixed_array(np.array([1]), 1)
    return writer.to_bytes()


class TestArrayBitIO:
    def test_fixed_array_matches_reference_code(self):
        values = np.array([0, 1, 5, 1023, 512, 77], dtype=np.int64)
        w = BitWriter()
        w.write_fixed_array(values, 10)
        reference = _Bits()
        for v in values:
            reference.fixed(int(v), 10)
        assert _marked(w) == reference.raw("1").to_bytes()
        assert np.array_equal(BitReader(w.to_bytes()).read_fixed_array(6, 10), values)

    def test_signed_array_matches_reference_code(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-(2**63), 2**63 - 1, size=3000, dtype=np.int64) >> rng.integers(0, 64, size=3000)
        values[:8] = [0, -1, 1, 2**62, -(2**62) - 1, 2**63 - 1, -(2**63), 2**53 + 1]
        values[8:19] = [0, 1, -1, 2, -2, 63, -64, 1000, -1000, 2**30, -(2**30)]
        reference = [_reference_signed_bits(int(v)) for v in values]
        w = BitWriter()
        w.write_signed_sections(values)
        assert _marked(w) == _Bits().raw(_layout(reference, 2) + "1").to_bytes()
        assert np.array_equal(2 * signed_widths(values), [len(code) for code in reference])
        assert np.array_equal(BitReader(w.to_bytes()).read_signed_sections(values.size), values)
        v1 = _Bits().raw(_layout(reference, 1)).to_bytes()
        assert np.array_equal(BitReader(v1).read_signed_array(values.size), values)

    def test_fixed_array_rejects_values_too_wide(self):
        with pytest.raises(ValueError):
            BitWriter().write_fixed_array(np.array([4]), 2)
        with pytest.raises(ValueError):
            BitWriter().write_fixed_array(np.array([-1]), 8)

    @pytest.mark.parametrize("version", [1, 2])
    def test_signed_width_prefix_too_long(self, version):
        with pytest.raises(MalformedStreamError):
            _read(BitReader(b"\xff" * 9), 1, version)

    @pytest.mark.parametrize("version", [1, 2])
    def test_signed_array_truncation(self, version):
        blob = _Bits().codes([3, -700, 2**40], version).to_bytes()
        assert _read(BitReader(blob), 3, version).tolist() == [3, -700, 2**40]
        with pytest.raises(MalformedStreamError):
            _read(BitReader(blob[:-2]), 3, version)


class TestHostileStreams:
    @pytest.mark.parametrize("version", [0, 3, 255])
    def test_unknown_version_rejected(self, version):
        blob = MAGIC + bytes([version]) + PINNED_STREAMS[1][0][5:]
        with pytest.raises(MalformedStreamError, match=f"unsupported version {version}"):
            Descriptor.deserialize(blob)

    @pytest.mark.parametrize("version", [1, 2])
    def test_huge_domain_rejected_before_allocation(self, version):
        blob = _header((2**20, 2**20), version=version).to_bytes()
        assert len(blob) <= 30
        assert math.prod((2**20, 2**20)) > MAX_DOMAIN_SIZE
        with pytest.raises(MalformedStreamError):
            Descriptor.deserialize(blob)
        with pytest.raises(MalformedStreamError):
            rd_decode(blob)

    @pytest.mark.parametrize("version", [1, 2])
    def test_domain_at_the_cap_accepted(self, version):
        d = Descriptor.deserialize(_header((MAX_DOMAIN_SIZE,), version=version).to_bytes())
        assert d.group.size == MAX_DOMAIN_SIZE and d.k == 0

    def test_no_stream_is_written_for_a_domain_above_the_cap(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="cap"):
            Descriptor((2, MAX_DOMAIN_SIZE), "gabor", 1.0, 0.2, empty, empty, empty)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("field", ["coeff_l2", "eps"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_header_floats_rejected(self, field, value, version):
        blob = _header((8,), version=version, **{field: value}).to_bytes()
        with pytest.raises(MalformedStreamError):
            Descriptor.deserialize(blob)
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="non-finite"):
            Descriptor((8,), "dft", **{"coeff_l2": 1.0, "eps": 0.2, field: value}, support=empty, q_re=empty, q_im=empty)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("label_code,factors", [(1, (2, 3)), (2, (8,)), (3, (4, 4)), (3, (6,))])
    def test_label_that_cannot_live_on_the_group_is_malformed(self, label_code, factors, version):
        blob = _header(factors, label_code, version=version).to_bytes()
        with pytest.raises(MalformedStreamError):
            Descriptor.deserialize(blob)
        with pytest.raises(MalformedStreamError):
            rd_decode(blob)

    @pytest.mark.parametrize("version", [1, 2])
    def test_trailing_bytes_rejected(self, version):
        blob = PINNED_STREAMS[version][0]
        Descriptor.deserialize(blob)
        for tail in (b"\x00", b"\x01", b"\x00" * 8):
            with pytest.raises(MalformedStreamError):
                Descriptor.deserialize(blob + tail)

    @pytest.mark.parametrize("version", [1, 2])
    def test_nonzero_padding_rejected(self, version):
        padded = 0
        for blob in PINNED_STREAMS[version]:
            d = Descriptor.deserialize(blob)
            pad = _account(d, r=1.0).header_bits - 8 * len(d._header())
            if pad == 0:
                continue
            padded += 1
            for bit in range(pad):
                bad = blob[:-1] + bytes([blob[-1] | (1 << bit)])
                with pytest.raises(MalformedStreamError):
                    Descriptor.deserialize(bad)
        assert padded >= 5


def _mutations(blob: bytes):
    return st.tuples(
        st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)), max_size=4),
        st.integers(0, len(blob)),
    ).map(lambda spec: _mutate(blob, *spec))


def _mutate(blob: bytes, flips, cut) -> bytes:
    out = bytearray(blob[:cut] if cut < len(blob) else blob)
    for index, mask in flips:
        if index < len(out):
            out[index] ^= mask
    return bytes(out)


_VERSIONS = st.sampled_from([1, 2])
_PREFIX = _VERSIONS.map(lambda version: MAGIC + bytes([version]))


_STREAMS = st.one_of(
    st.binary(max_size=64),
    st.tuples(_PREFIX, st.binary(max_size=96)).map(lambda parts: parts[0] + parts[1]),
    st.tuples(_PREFIX, st.binary(max_size=96)).map(lambda parts: parts[0] + struct.pack(">BB", 1, 16) + parts[1]),
    st.builds(
        lambda factors, code, k, coeff_l2, eps, body, version: _header(factors, code, k, coeff_l2, eps, version).to_bytes()
        + body,
        st.lists(st.integers(1, 2**70), min_size=1, max_size=3),
        st.integers(0, 5),
        st.integers(0, 40),
        st.floats(),
        st.floats(),
        st.binary(max_size=64),
        _VERSIONS,
    ),
    *(_mutations(PINNED_STREAMS[version][PINNED.index(ENCODED[0])]) for version in (1, 2)),
)


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(_STREAMS)
def test_arbitrary_bytes_give_descriptor_or_malformed(data):
    try:
        d = Descriptor.deserialize(data)
    except MalformedStreamError:
        return
    assert isinstance(d, Descriptor)
    assert d.group.size <= MAX_DOMAIN_SIZE
    assert math.isfinite(d.coeff_l2) and math.isfinite(d.eps)


def _flips(blob: bytes):
    """blob with one or two bytes xor-ed, its length kept."""
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)), min_size=1, max_size=2)
    return flips.map(lambda spec: _mutate(blob, spec, len(blob)))


@settings(max_examples=500, deadline=timedelta(seconds=2))
@given(st.one_of(_STREAMS, *(_flips(blob) for version in (1, 2) for blob in PINNED_STREAMS[version])))
def test_accepted_streams_are_canonical(data):
    try:
        d = Descriptor.deserialize(data)
    except MalformedStreamError:
        return
    # an accepted version 1 stream is written again in version 2's layout
    assert d.serialize() == (data if data[4] == VERSION else _relayout(data, VERSION))


def _one_term_dft4(factor_bytes: bytes | None = None, k_bytes: bytes | None = None, q_re_code=None, version=1) -> bytes:
    """A one-term dft:4 descriptor (support [2], q = 1 + 0i), with optional hand-coded fields."""
    w = _Bits().bytes(MAGIC).fixed(version, 8).varint(1)
    if factor_bytes is None:
        w.varint(4)
    else:
        w.bytes(factor_bytes)
    w.fixed(0, 8)
    if k_bytes is None:
        w.varint(1)
    else:
        w.bytes(k_bytes)
    w.float64(1.0).float64(0.2).fixed(2, 2)
    q_re = _reference_signed_bits(1) if q_re_code is None else format(q_re_code[0], f"0{q_re_code[1]}b")
    return w.raw(_layout([q_re, _reference_signed_bits(0)], version)).to_bytes()


class TestCanonicalStreams:
    @pytest.mark.parametrize("version", [1, 2])
    def test_minimal_stream_decodes(self, version):
        blob = _one_term_dft4(version=version)
        d = Descriptor.deserialize(blob)
        assert (d.k, d.support.tolist(), d.q_re.tolist(), d.q_im.tolist()) == (1, [2], [1], [0])
        assert d.serialize() == _one_term_dft4(version=2)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("code", [(0b110001, 6), (0b11100001, 8), (0b1111000000, 10)])
    def test_signed_code_wider_than_minimal_rejected(self, code, version):
        # 1 in width 3 (and 4) instead of 2, or 0 in width 5 instead of 1
        with pytest.raises(MalformedStreamError, match="minimal"):
            Descriptor.deserialize(_one_term_dft4(q_re_code=code, version=version))

    @pytest.mark.parametrize("version", [1, 2])
    def test_signed_reader_rejects_non_minimal_code(self, version):
        blob = _Bits().raw("1000").to_bytes()  # 0 in width 2, in either layout
        with pytest.raises(MalformedStreamError):
            _read(BitReader(blob), 1, version)

    @pytest.mark.parametrize("field", ["factor", "k"])
    @pytest.mark.parametrize("redundant", [b"\x80\x00", b"\x81\x80\x00"])
    def test_varint_with_redundant_continuation_rejected(self, field, redundant):
        value = {"factor": 4, "k": 1}[field]
        coded = bytes([redundant[0] | value]) + redundant[1:]
        with pytest.raises(MalformedStreamError, match="varint"):
            Descriptor.deserialize(_one_term_dft4(**{f"{field}_bytes": coded}))

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**40])
    def test_varint_matches_reference_code(self, value):
        coded = _varint(value)
        assert coded == _Bits().varint(value).to_bytes()
        head = _ByteCursor(coded)
        assert (head.varint(), head.pos) == (value, len(coded))

    def test_multi_byte_varints_still_decode(self):
        blob = _header((300, 2)).to_bytes()
        assert Descriptor.deserialize(blob).factors == (300, 2)


def test_one_point_domain_encodes():
    # the two-term bound needs M >= 2; on one point its terms are reported as None
    system = parse_system("dft:1")
    f = Signal(system.group, np.array([1.0]))
    d, account = rd_encode(system, f, 0.1)
    assert account.bound_terms == {"c0_term": None, "c1_term": None}
    blob = d.serialize()
    assert account.total == 8 * len(blob)
    assert _same(Descriptor.deserialize(blob), d)
    assert abs(rd_decode(blob).values[0] - 1.0) <= 0.1


def _signed_width(v: int) -> int:
    """Payload width of v's signed code: its bit length (of -v-1 when v < 0) plus a sign bit."""
    return (v if v >= 0 else -v - 1).bit_length() + 1


def _library_read_signed(data: bytes, skip: int, count: int, version: int = 1):
    """The same outcome from BitReader, after a skip-bit fixed-width field."""
    reader = BitReader(data)
    reader.read_fixed_array(1, skip)
    try:
        values = _read(reader, count, version)
    except MalformedStreamError as exc:
        return str(exc)
    assert values.dtype == np.int64
    return values.tolist(), reader._pos


_INT64_ENDS = [0, -1, 1, 2**63 - 1, -(2**63), 2**53 - 1, 2**53 + 1, -(2**53) - 1, -(2**53) + 1, 2**53, -(2**53)]
_INT64S = st.one_of(
    st.sampled_from(_INT64_ENDS),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(1, 64).flatmap(lambda w: st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1)),
)


def _bits_to_bytes(bits: str) -> bytes:
    return _Bits().raw(bits).to_bytes()


@st.composite
def _reader_inputs(draw, version: int = 1):
    """(stream bytes, skip, count): the signed section, laid out as version
    lays it out, starts after skip bits."""
    kind = draw(st.sampled_from(["random", "cut", "long prefix"]))
    values = draw(st.lists(_INT64S, min_size=1, max_size=8))
    codes = _layout(list(map(_reference_signed_bits, values)), version)
    if kind == "random":
        data = draw(st.binary(min_size=8, max_size=48))
        return data, draw(st.integers(0, 63)), draw(st.integers(0, 40))
    if kind == "cut":
        # cut the codes at any bit, inside a prefix or a payload, with a skip
        # that puts the cut on a byte boundary
        cut = draw(st.integers(0, len(codes)))
        skip = -cut % 8 + 8 * draw(st.integers(0, 7 - (-cut % 8 > 0)))
        filler = draw(st.integers(0, 2**skip - 1))
        data = _bits_to_bytes(format(filler, f"0{skip}b")[:skip] + codes[:cut])
        return data, skip, len(values) + draw(st.integers(-1, 1)) * (len(values) > 1)
    ones = draw(st.integers(64, 200))
    tail = draw(st.text(alphabet="01", max_size=300))
    skip = draw(st.integers(0, 63))
    # in version 2, the long prefix follows the prefixes of the codes
    codes = codes[: len(codes) // version]
    data = _bits_to_bytes("0" * skip + codes + "1" * ones + "0" + tail)
    return data, skip, len(values) + draw(st.integers(1, 3))


class TestWordBitIO:
    @settings(max_examples=300, deadline=timedelta(seconds=2))
    @given(st.integers(0, 63), st.lists(_INT64S, max_size=40), st.integers(1, 64), st.lists(_INT64S, max_size=5), st.data())
    def test_writer_matches_reference_at_every_offset(self, skip, values, nbits, more, data):
        filler = data.draw(st.integers(0, 2**skip - 1))
        fixed = data.draw(st.integers(0, 2**nbits - 1))
        w = BitWriter()
        w.write_fixed_array(np.array([filler], dtype=np.uint64), skip)
        w.write_signed_sections(np.array(values, dtype=np.int64))
        w.write_fixed_array(np.array([fixed], dtype=np.uint64), nbits)
        w.write_signed_sections(np.array(more, dtype=np.int64))
        reference = {v: _Bits().fixed(filler, skip).codes(values, v).fixed(fixed, nbits).codes(more, v) for v in (1, 2)}
        streams = {1: reference[1].to_bytes(), 2: w.to_bytes()}
        assert _marked(w) == reference[2].raw("1").to_bytes()
        for version, stream in streams.items():
            reader = BitReader(stream)
            assert reader.read_fixed_array(1, skip).tolist() == [filler]
            assert _read(reader, len(values), version).tolist() == values
            assert reader.read_fixed_array(1, nbits).tolist() == [fixed]
            assert _read(reader, len(more), version).tolist() == more
            reader.check_end()

    def test_every_width_at_every_offset(self):
        # the two ends of every width, so payloads start at every bit of a word
        values = [v for w in range(1, 65) for v in (-(1 << (w - 1)), (1 << (w - 1)) - 1)]
        codes = list(map(_reference_signed_bits, values))
        end = sum(map(len, codes))
        for skip in range(64):
            w = BitWriter()
            w.write_fixed_array(np.array([2**skip - 1], dtype=np.uint64), skip)
            w.write_signed_sections(np.array(values, dtype=np.int64))
            stream = w.to_bytes()
            assert _marked(w) == _bits_to_bytes("1" * skip + _layout(codes, 2) + "1")
            assert _library_read_signed(stream, skip, len(values), 2) == (values, skip + end)
            v1 = _bits_to_bytes("1" * skip + _layout(codes, 1))
            assert _library_read_signed(v1, skip, len(values)) == (values, skip + end)

    @pytest.mark.parametrize("widths", [(31,), (32,), (33,), (64,), (31, 32, 33, 64), (64, 33, 32, 31, 31, 64)])
    @pytest.mark.parametrize("skip", [0, 1, 32, 63])
    def test_wide_codes_match_reference(self, widths, skip):
        # payloads of about half a word and of a whole word, so payload
        # fields and 64-bit prefix fields cross word edges at every skip
        rng = np.random.default_rng(29)
        w = np.resize(np.array(widths), 50)
        x = (1 << (w - 2)) + rng.integers(0, 1 << (w - 2))
        values = np.where(rng.integers(0, 2, size=w.size) == 1, x, -x - 1)
        assert np.array_equal(signed_widths(values), w)
        writer = BitWriter()
        writer.write_fixed_array(np.array([0]), skip)
        writer.write_signed_sections(values)
        codes = [_reference_signed_bits(int(v)) for v in values]
        end = skip + sum(map(len, codes))
        stream = _marked(writer)
        assert stream == _bits_to_bytes("0" * skip + _layout(codes, 2) + "1")
        assert _library_read_signed(stream, skip, values.size, 2) == (values.tolist(), end)
        v1 = _bits_to_bytes("0" * skip + _layout(codes, 1))
        assert _library_read_signed(v1, skip, values.size) == (values.tolist(), end)

    @pytest.mark.parametrize("version", [1, 2])
    @settings(max_examples=500, deadline=timedelta(seconds=2))
    @given(data=st.data())
    def test_reader_matches_reference_decoder(self, version, data):
        stream, skip, count = data.draw(_reader_inputs(version))
        bits = "".join(format(b, "08b") for b in stream)
        assert _library_read_signed(stream, skip, count, version) == _reference_read_signed(bits, skip, count, version)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("where", ["prefix", "payload"])
    def test_cut_inside_a_code_is_truncated(self, where, version):
        # a cut in the second code's prefix or payload, or in version 2 in
        # the prefix section or the payload section
        codes = _layout([_reference_signed_bits(5), _reference_signed_bits(-(2**40))], version)
        cut = 6 + (20 if where == "prefix" else 50)
        skip = -cut % 8
        bits = "0" * skip + codes[:cut]
        assert _reference_read_signed(bits, skip, 2, version) == "stream truncated"
        assert _library_read_signed(_bits_to_bytes(bits), skip, 2, version) == "stream truncated"

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("ones", [64, 65, 127, 128, 300])
    def test_prefix_of_64_ones_or_more_is_too_long(self, ones, version):
        bits = _reference_signed_bits(3) + "1" * ones + "0" + "0" * (ones + 1)
        assert _library_read_signed(_bits_to_bytes(bits), 0, 3, version) == "signed width prefix too long"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INT64S, max_size=50))
    def test_signed_widths_are_bit_lengths(self, values):
        widths = signed_widths(np.array(values, dtype=np.int64))
        assert widths.dtype == np.int64 and widths.tolist() == [_signed_width(v) for v in values]

    def test_signed_widths_at_every_binade_edge(self):
        # float64 rounds 2^j - 1 up to 2^j from j = 54 on
        values = [s * (2**j + d) for j in range(63) for d in (-1, 0, 1) for s in (1, -1)] + _INT64_ENDS
        values = [v for v in values if -(2**63) <= v < 2**63]
        assert signed_widths(np.array(values, dtype=np.int64)).tolist() == [_signed_width(v) for v in values]


@pytest.mark.parametrize("version", [1, 2])
def test_long_tail_fails_in_bounded_memory(version):
    system = parse_system("dft:16")
    d, _ = rd_encode(system, generate_signal(system, "random", seed=3), 0.2)
    tail = bytes(16 << 20)
    blob = _relayout(d.serialize(), version) + tail
    for decode in (Descriptor.deserialize, rd_decode):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedStreamError, match="trailing bytes after the stream"):
                decode(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(tail) // 16
