"""Rate-distortion descriptor codec: sparsify, quantize, serialize, account bits.

Encoding truncates the coefficient vector with an eta = eps/4 soft
sparsification, quantizes real and imaginary parts of the survivors to the
step delta = eps * ||c||_2 / (4 sqrt(k)), and serializes everything into a
self-delimiting bitstream.  Truncation contributes at most eps/4 and
quantization at most eps/2 of the signal norm, so the decoded signal is within
eps * ||f||_2 of the original.

Stream layout: a byte header, then a bit-packed body.  The header is the
magic "FRRD", a version byte, the factor count and factors (unsigned LEB128
varints), the system code byte, k (varint), and big-endian float64 ||c||_2
and eps.  The body is k support indices at ceil(log2 M) fixed bits each, then
the signed codes of k (re, im) pairs, then zero bits to a byte boundary.  The
codes of version 2, the one written, are every unary prefix, then every
payload; version 1, still read, puts each prefix before its payload, in the
same bits.  ``bitio`` packs and parses the body in 64-bit words, in place and
in memory that follows k, not the stream length.  A Descriptor checks its own
fields when it is built, and the decoder reads a stream into one, so it
refuses what the constructor refuses.  It also rejects nonzero padding,
trailing bytes and non-minimal varints and signed codes, so every accepted
stream serializes back to itself, a version 1 stream to its version 2 layout.
The bit account counts the body in closed form, so rd_encode serializes
nothing.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitio import BitReader, BitWriter, MalformedStreamError, signed_widths
from .groups import FiniteAbelianGroup, Signal, check_domain_size
from .ratio import check_bound_args, refuses_overflow, soft_sparsify
from .systems import SYSTEMS, OrthonormalSystem, system_on_group

MAGIC = b"FRRD"
VERSION = 2
_SIGNED_READERS = {1: BitReader.read_signed_array, VERSION: BitReader.read_signed_sections}
_CODE_LABELS = {cls.code: label for label, cls in SYSTEMS.items()}
# Largest quantization code rd_encode makes: float64 holds every integer up to
# 2^53 exactly, and the decoder scales the codes as float64.
_MAX_CODE = 2.0**53


@dataclass(frozen=True)
class Descriptor:
    """Self-delimiting description of a quantized, sparsified coefficient vector.  The
    constructor refuses (ValueError) fields that no stream can hold and builds ``system``."""

    factors: tuple[int, ...]
    label: str
    coeff_l2: float
    eps: float
    support: np.ndarray = field(repr=False)
    q_re: np.ndarray = field(repr=False)
    q_im: np.ndarray = field(repr=False)
    system: OrthonormalSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "system", system_on_group(self.label, FiniteAbelianGroup(check_domain_size(self.factors))))
        if not (math.isfinite(self.coeff_l2) and math.isfinite(self.eps)):
            raise ValueError("non-finite coefficient norm or eps")
        arrays = (self.support, self.q_re, self.q_im)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64) for a in arrays):
            raise ValueError("support, q_re and q_im must be 1-D arrays of an integer type that int64 holds")
        if len({a.size for a in arrays}) > 1:
            raise ValueError("support, q_re and q_im differ in length")
        M = self.system.size
        if self.k > M or (self.k and not (0 <= self.support.min() and self.support.max() < M)):
            raise ValueError(f"a support of k = {self.k} indices must have k <= {M} and each index in [0, {M})")
        if (self.support[1:] <= self.support[:-1]).any():
            raise ValueError("support indices must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.system.group

    @property
    def delta(self) -> float:
        return _quantization_step(self.eps, self.coeff_l2, self.k)

    def serialize(self) -> bytes:
        body = BitWriter()
        body.write_fixed_array(self.support, _index_bits(self.system.size))
        body.write_signed_sections(np.column_stack((self.q_re, self.q_im)))
        return self._header() + body.to_bytes()

    def _header(self) -> bytes:
        """The byte-aligned fields before the body."""
        varints = b"".join(map(_varint, (len(self.factors), *self.factors)))
        code = bytes([self.system.code])
        return MAGIC + bytes([VERSION]) + varints + code + _varint(self.k) + struct.pack(">dd", self.coeff_l2, self.eps)

    @classmethod
    def deserialize(cls, data: bytes) -> "Descriptor":
        """The stream's descriptor; the checks here bound the work before the body is read."""
        head = _ByteCursor(data)
        if head.take(4) != MAGIC:
            raise MalformedStreamError("bad magic")
        version = head.take(1)[0]
        if version not in _SIGNED_READERS:
            raise MalformedStreamError(f"unsupported version {version}")
        count = head.varint()
        if count == 0:
            raise MalformedStreamError("empty factor list")
        factors = tuple(head.varint() for _ in range(count))
        if any(n < 1 for n in factors):
            raise MalformedStreamError("invalid cyclic factor")
        M = math.prod(check_domain_size(factors, MalformedStreamError))
        label_code = head.take(1)[0]
        if label_code not in _CODE_LABELS:
            raise MalformedStreamError(f"unknown system code {label_code}")
        k = head.varint()
        coeff_l2, eps = struct.unpack(">dd", head.take(16))
        if k > M:  # also stops a 0-bit index read on one point from reading k > 1 indices
            raise MalformedStreamError("support larger than the domain")
        body = BitReader(memoryview(data)[head.pos :])
        support = body.read_fixed_array(k, _index_bits(M))
        q_re, q_im = _SIGNED_READERS[version](body, 2 * k).reshape(k, 2).T.copy()
        body.check_end()
        try:
            return cls(factors, _CODE_LABELS[label_code], coeff_l2, eps, support.astype(np.int64), q_re, q_im)
        except ValueError as exc:
            raise MalformedStreamError(str(exc)) from None


def _varint(value: int) -> bytes:
    """Unsigned LEB128: 7 bits per byte, low bits first, the high bit set on all but the last byte."""
    out = []
    while value > 0x7F:
        out.append(0x80 | value & 0x7F)
        value >>= 7
    return bytes([*out, value])


class _ByteCursor:
    """Reads the header fields off the front of a stream."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n > len(self.data) - self.pos:
            raise MalformedStreamError("stream truncated")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def varint(self) -> int:
        value = shift = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if byte == 0 and shift:
                    raise MalformedStreamError("non-canonical varint: redundant continuation byte")
                return value
            shift += 7
            if shift > 63:
                raise MalformedStreamError("varint too long")


@dataclass(frozen=True)
class BitAccount:
    header_bits: int
    support_bits: int
    coefficient_bits: int
    total: int
    bound_terms: dict


def _index_bits(M: int) -> int:
    return max(0, (M - 1).bit_length())


def _quantization_step(eps: float, coeff_l2: float, k: int) -> float:
    """delta = eps ||c||_2 / (4 sqrt(k)), and 0 for an empty support."""
    return eps / (4.0 * math.sqrt(k)) * coeff_l2 if k else 0.0


def _quantize_toward_zero(values: np.ndarray, delta: float) -> np.ndarray:
    """Nearest multiple of delta, exact half-steps rounded toward zero."""
    scaled = np.abs(values)
    scaled /= delta
    q = np.floor(scaled)
    scaled -= q  # the fraction past the floor
    q += scaled > 0.5
    q *= np.sign(values)
    return q.astype(np.int64)


def rd_encode(system: OrthonormalSystem, f: Signal, eps: float) -> tuple[Descriptor, BitAccount]:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not f.is_nonzero:
        raise ValueError("cannot encode the zero signal")
    c = system.analyze(f)
    sparse = soft_sparsify(c, eps / 4.0)
    support = sparse.support
    k = int(support.shape[0])
    coeff_l2 = float(c.l2)
    delta = _quantization_step(eps, coeff_l2, k)
    kept = c.entries[support]
    if k and max(np.abs(kept.real).max(), np.abs(kept.imag).max()) > _MAX_CODE * delta:
        raise ValueError(f"eps={eps} is too small: its quantization codes would exceed 2^53, past exact float64 integers")
    q_re = _quantize_toward_zero(kept.real, delta)
    q_im = _quantize_toward_zero(kept.imag, delta)
    descriptor = Descriptor(
        factors=system.group.factors,
        label=system.label,
        coeff_l2=coeff_l2,
        eps=float(eps),
        support=support,
        q_re=q_re,
        q_im=q_im,
    )
    account = _account(descriptor, r=sparse.ratio)
    return descriptor, account


def _account(d: Descriptor, r: float) -> BitAccount:
    """Exact bit counts of d's stream, with the body in closed form; header_bits includes the padding."""
    support_bits = d.k * _index_bits(d.system.size)
    coefficient_bits = 2 * int(signed_widths(np.concatenate((d.q_re, d.q_im))).sum())
    total = 8 * len(d._header()) + 8 * -(-(support_bits + coefficient_bits) // 8)
    header_bits = total - support_bits - coefficient_bits
    # the two-term bound needs M >= 2; a one-point domain has no bound terms
    M = d.system.size
    c0_term, c1_term = _bound_terms(max(1.0, r), d.eps, M) if M >= 2 else (None, None)
    return BitAccount(
        header_bits=header_bits,
        support_bits=support_bits,
        coefficient_bits=coefficient_bits,
        total=total,
        bound_terms={"c0_term": c0_term, "c1_term": c1_term},
    )


def rd_decode(descriptor: Descriptor | bytes) -> Signal:
    if not isinstance(descriptor, Descriptor):
        descriptor = Descriptor.deserialize(descriptor)
    system = descriptor.system
    entries = np.zeros(system.size, dtype=np.complex128)
    entries[descriptor.support] = (
        descriptor.q_re.astype(np.float64) + 1j * descriptor.q_im.astype(np.float64)
    ) * descriptor.delta
    return system.synthesize(entries)


def _bound_terms(r: float, eps: float, M: int) -> tuple[float, float]:
    """The two terms of rd_bit_bound: (r/eps)^2 L^2 log M and (r/eps)^2 L^3."""
    check_bound_args(r, eps, M)
    L = max(1.0, math.log(r / eps))
    base = (r / eps) ** 2
    return base * L**2 * math.log(M), base * L**3


@refuses_overflow()
def rd_bit_bound(r: float, eps: float, M: int) -> float:
    """Two-term description-length bound (r/eps)^2 L^2 log M + (r/eps)^2 L^3.

    L = log(r/eps) floored at 1; the decoder-program constant is reported
    separately as the fixed header size.
    """
    return sum(_bound_terms(r, eps, M))


@refuses_overflow()
def rd_bit_bound_gabor(r: float, eps: float, N: int, T: int) -> float:
    """Variant of the bound for block time-frequency domains (both constants 1):
    the second term carries L^2 log(1/eps) instead of L^3, with M = N*T."""
    check_bound_args(r, eps, N * T)
    L = max(1.0, math.log(r / eps))
    base = (r / eps) ** 2
    return base * L**2 * math.log(N * T) + base * L**2 * math.log(1.0 / eps)
