"""Rate-distortion descriptor codec: sparsify, quantize, serialize, account bits.

Encoding truncates the coefficient vector with an eta = eps/4 soft
sparsification, quantizes real and imaginary parts of the survivors to the
step delta = eps * ||c||_2 / (4 sqrt(k)), and serializes everything into a
self-delimiting bitstream.  Truncation contributes at most eps/4 and
quantization at most eps/2 of the signal norm, so the decoded signal is within
eps * ||f||_2 of the original.

Stream layout: magic "FRRD", version byte, factor count + factors (varints),
system label byte, k (varint), float64 ||c||_2, float64 eps, k support indices
at ceil(log2 M) fixed bits each, then k (re, im) signed self-delimiting pairs,
then zero bits up to the next byte boundary.  The decoder rejects domains of
more than MAX_DOMAIN_SIZE points, non-finite floats, nonzero padding,
trailing bytes and non-minimal varints and signed codes, so every accepted
stream is the serialization of the descriptor it decodes to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitio import BitReader, BitWriter, MalformedStreamError, signed_widths
from .groups import FiniteAbelianGroup, Signal, check_domain_size
from .ratio import check_bound_args, fourier_ratio, soft_sparsify
from .systems import SYSTEMS, OrthonormalSystem, system_on_group

MAGIC = b"FRRD"
VERSION = 1
_CODE_LABELS = {cls.code: label for label, cls in SYSTEMS.items()}
# bits of the header fields of fixed size: magic, version, label, two float64
_FIXED_HEADER_BITS = 8 * len(MAGIC) + 8 + 8 + 2 * 64


@dataclass(frozen=True)
class Descriptor:
    """Self-delimiting description of a quantized, sparsified coefficient vector."""

    factors: tuple[int, ...]
    label: str
    k: int
    coeff_l2: float
    eps: float
    support: np.ndarray = field(repr=False)
    q_re: np.ndarray = field(repr=False)
    q_im: np.ndarray = field(repr=False)

    @property
    def group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(self.factors)

    @property
    def delta(self) -> float:
        if self.k == 0:
            return 0.0
        return self.eps / (4.0 * math.sqrt(self.k)) * self.coeff_l2

    def serialize(self) -> bytes:
        writer = BitWriter()
        self._write(writer)
        return writer.to_bytes()

    def _write(self, writer: BitWriter) -> None:
        check_domain_size(self.factors)  # no stream the decoder would refuse
        # _header_bits counts these fields; keep the two in step
        writer.write_bytes(MAGIC)
        writer.write(VERSION, 8)
        writer.write_varint(len(self.factors))
        for n in self.factors:
            writer.write_varint(n)
        writer.write(SYSTEMS[self.label].code, 8)
        writer.write_varint(self.k)
        writer.write_float64(self.coeff_l2)
        writer.write_float64(self.eps)
        writer.write_fixed_array(self.support, _index_bits(self.group.size))
        writer.write_signed_array(np.column_stack((self.q_re, self.q_im)))

    @classmethod
    def deserialize(cls, data: bytes) -> "Descriptor":
        reader = BitReader(data)
        if reader.read_bytes(4) != MAGIC:
            raise MalformedStreamError("bad magic")
        version = reader.read(8)
        if version != VERSION:
            raise MalformedStreamError(f"unsupported version {version}")
        count = reader.read_varint()
        if count == 0:
            raise MalformedStreamError("empty factor list")
        factors = tuple(reader.read_varint() for _ in range(count))
        if any(n < 1 for n in factors):
            raise MalformedStreamError("invalid cyclic factor")
        check_domain_size(factors, MalformedStreamError)
        group = FiniteAbelianGroup(factors)
        label_code = reader.read(8)
        if label_code not in _CODE_LABELS:
            raise MalformedStreamError(f"unknown system code {label_code}")
        label = _CODE_LABELS[label_code]
        k = reader.read_varint()
        coeff_l2 = reader.read_float64()
        eps = reader.read_float64()
        if not (math.isfinite(coeff_l2) and math.isfinite(eps)):
            raise MalformedStreamError("non-finite coefficient norm or eps")
        if k > group.size:
            raise MalformedStreamError("support larger than the domain")
        support = reader.read_fixed_array(k, _index_bits(group.size))
        if np.any(support >= group.size):
            raise MalformedStreamError("support index out of range")
        q_re, q_im = reader.read_signed_array(2 * k).reshape(k, 2).T.copy()
        reader.check_end()
        return cls(
            factors=factors,
            label=label,
            k=k,
            coeff_l2=coeff_l2,
            eps=eps,
            support=support.astype(np.int64),
            q_re=q_re,
            q_im=q_im,
        )


@dataclass(frozen=True)
class BitAccount:
    header_bits: int
    support_bits: int
    coefficient_bits: int
    total: int
    bound_terms: dict


def _index_bits(M: int) -> int:
    return max(0, (M - 1).bit_length())


def _varint_bits(value: int) -> int:
    return 8 * max(1, -(-value.bit_length() // 7))


def _header_bits(d: Descriptor) -> int:
    """Bits Descriptor._write spends before the support indices."""
    varints = (len(d.factors), *d.factors, d.k)
    return _FIXED_HEADER_BITS + sum(_varint_bits(v) for v in varints)


def _quantize_toward_zero(values: np.ndarray, delta: float) -> np.ndarray:
    """Nearest multiple of delta, exact half-steps rounded toward zero."""
    scaled = np.abs(values) / delta
    floor = np.floor(scaled)
    frac = scaled - floor
    q = floor + (frac > 0.5)
    return (np.sign(values) * q).astype(np.int64)


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
    delta = eps / (4.0 * math.sqrt(k)) * coeff_l2
    kept = c.entries[support]
    q_re = _quantize_toward_zero(kept.real, delta)
    q_im = _quantize_toward_zero(kept.imag, delta)
    descriptor = Descriptor(
        factors=system.group.factors,
        label=system.label,
        k=k,
        coeff_l2=coeff_l2,
        eps=float(eps),
        support=support,
        q_re=q_re,
        q_im=q_im,
    )
    account = _account(descriptor, r=fourier_ratio(c))
    return descriptor, account


def _account(d: Descriptor, r: float) -> BitAccount:
    """Exact bit counts of d's stream, in closed form; header_bits includes the padding."""
    support_bits = d.k * _index_bits(d.group.size)
    coefficient_bits = 2 * int(signed_widths(d.q_re).sum() + signed_widths(d.q_im).sum())
    total = 8 * -(-(_header_bits(d) + support_bits + coefficient_bits) // 8)
    header_bits = total - support_bits - coefficient_bits
    # the two-term bound needs M >= 2; a one-point domain has no bound terms
    M = d.group.size
    bound_terms = {
        "c0_term": rd_bit_bound(max(1.0, r), d.eps, M, C0=1.0, C1=0.0) if M >= 2 else None,
        "c1_term": rd_bit_bound(max(1.0, r), d.eps, M, C0=0.0, C1=1.0) if M >= 2 else None,
    }
    return BitAccount(
        header_bits=header_bits,
        support_bits=support_bits,
        coefficient_bits=coefficient_bits,
        total=total,
        bound_terms=bound_terms,
    )


def rd_decode(descriptor: Descriptor | bytes) -> Signal:
    if isinstance(descriptor, (bytes, bytearray)):
        descriptor = Descriptor.deserialize(bytes(descriptor))
    try:
        system = system_on_group(descriptor.label, descriptor.group)
    except ValueError as exc:
        raise MalformedStreamError(f"{descriptor.label} descriptor: {exc}") from None
    entries = np.zeros(system.size, dtype=np.complex128)
    if descriptor.k:
        entries[descriptor.support] = (
            descriptor.q_re.astype(np.float64) + 1j * descriptor.q_im.astype(np.float64)
        ) * descriptor.delta
    return system.synthesize(entries)


def rd_bit_bound(r: float, eps: float, M: int, C0: float = 1.0, C1: float = 1.0) -> float:
    """Two-term description-length bound C0 (r/eps)^2 L^2 log M + C1 (r/eps)^2 L^3.

    L = log(r/eps) floored at 1; the decoder-program constant is reported
    separately as the fixed header size.
    """
    check_bound_args(r, eps, M)
    L = max(1.0, math.log(r / eps))
    base = (r / eps) ** 2
    return C0 * base * L**2 * math.log(M) + C1 * base * L**3


def rd_bit_bound_gabor(r: float, eps: float, N: int, T: int, C0: float = 1.0, C1: float = 1.0) -> float:
    """Variant of the bound for block time-frequency domains: the second term
    carries L^2 log(1/eps) instead of L^3, with M = N*T."""
    check_bound_args(r, eps, N * T)
    L = max(1.0, math.log(r / eps))
    base = (r / eps) ** 2
    return C0 * base * L**2 * math.log(N * T) + C1 * base * L**2 * math.log(1.0 / eps)
