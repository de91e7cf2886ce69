"""Bit-level stream I/O for the bit-packed body of the descriptor format.

Bits are written MSB-first and held as numpy arrays of 0/1 bytes, packed and
unpacked with ``np.packbits``/``np.unpackbits``.  Integers use either fixed
widths or a self-delimiting signed code: a unary width prefix (width-1 ones
then a zero) followed by a minimal-width two's-complement payload, 2 * width
bits in all.  Each value has exactly one code: the reader rejects signed
codes wider than their value needs.  Whole arrays of codes are written and
read in a few vectorized passes; values are at most 64 bits wide.
"""
from __future__ import annotations

import numpy as np

_WORD = 64  # widest fixed-width field and widest signed payload


class MalformedStreamError(ValueError):
    """Raised when a descriptor stream is truncated or ill-formed."""


def signed_widths(values) -> np.ndarray:
    """Payload width of each value's signed code, in exact integer arithmetic.

    The width is the bit length of v (of -v-1 when v < 0) plus a sign bit, so
    a value's code takes 2 * width bits.
    """
    v = np.asarray(values, dtype=np.int64)
    x = v ^ (v >> 63)  # v when v >= 0, -v-1 when v < 0
    width = np.ones(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        wide = (x >> shift) != 0
        width += wide * shift
        x = np.where(wide, x >> shift, x)
    return width + x


class BitWriter:
    def __init__(self):
        self._chunks: list[np.ndarray] = []

    def write_fixed_array(self, values, nbits: int) -> None:
        """Each value in nbits bits, MSB first."""
        values = np.asarray(values).reshape(-1)
        if not 0 <= nbits <= _WORD:
            raise ValueError(f"fixed-width fields hold at most {_WORD} bits, not {nbits}")
        if values.size and (values.min() < 0 or (nbits < _WORD and values.max() >> nbits)):
            raise ValueError(f"cannot write values outside [0, 2^{nbits}) in {nbits} bits")
        words = np.ascontiguousarray(values, dtype=">u8").view(np.uint8).reshape(-1, 8)
        self._chunks.append(np.unpackbits(words, axis=1)[:, _WORD - nbits :].reshape(-1))

    def write_signed_array(self, values) -> None:
        """Signed codes of all values, back to back."""
        v = np.asarray(values, dtype=np.int64).reshape(-1)
        if not v.size:
            return
        width = signed_widths(v)
        length = 2 * width
        ends = np.cumsum(length)
        # bits from each stream bit to the last bit of its code: the prefix
        # holds the distances above width, its closing zero sits at width,
        # and payload bit `distance` is bit `distance` of the value
        distance = np.repeat(ends - 1, length) - np.arange(int(ends[-1]))
        bit_width = np.repeat(width, length)
        payload = (np.repeat(v, length) >> np.minimum(distance, _WORD - 1)) & 1
        self._chunks.append(np.where(distance < bit_width, payload, distance > bit_width).astype(np.uint8))

    def to_bytes(self) -> bytes:
        if not self._chunks:
            return b""
        return np.packbits(np.concatenate(self._chunks)).tobytes()


class BitReader:
    def __init__(self, data: bytes):
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self._pos = 0

    def _take(self, nbits: int) -> np.ndarray:
        if nbits > self._bits.size - self._pos:
            raise MalformedStreamError("stream truncated")
        bits = self._bits[self._pos : self._pos + nbits]
        self._pos += nbits
        return bits

    def read_fixed_array(self, count: int, nbits: int) -> np.ndarray:
        """count values of nbits bits each, as uint64."""
        if not 0 <= nbits <= _WORD:
            raise ValueError(f"fixed-width fields hold at most {_WORD} bits, not {nbits}")
        bits = self._take(count * nbits).reshape(count, nbits)
        words = np.zeros((count, _WORD), dtype=np.uint8)
        words[:, _WORD - nbits :] = bits
        return np.packbits(words, axis=1).view(">u8").reshape(-1).astype(np.uint64)

    def read_signed_array(self, count: int) -> np.ndarray:
        """count signed codes, as int64."""
        start = self._pos
        if 2 * count > self._bits.size - start:
            raise MalformedStreamError("stream truncated")
        if not count:
            return np.empty(0, dtype=np.int64)
        # no code is longer than 2 * _WORD bits, so count codes lie in this window
        window = self._bits[start : start + 2 * _WORD * count]
        end = window.size
        # a code at p of width w = (first zero at or after p) - p + 1 is
        # followed by the next at p + 2w; `end` stands in for a missing zero
        zeros = np.flatnonzero(window == 0)
        next_zero = np.full(end + 1, end)
        next_zero[zeros] = zeros
        next_zero = np.minimum.accumulate(next_zero[::-1])[::-1]
        jump = memoryview(2 * next_zero - np.arange(end + 1) + 2)
        starts = []
        pos = 0
        for _ in range(count):
            starts.append(pos)
            pos = jump[pos]
            if pos > end:
                break
        starts.append(pos)
        width = np.diff(starts) // 2
        if width.size and width.max() > _WORD:
            raise MalformedStreamError("signed width prefix too long")
        if pos > end:
            raise MalformedStreamError("stream truncated")
        self._pos = start + pos
        # every payload bit at once, summed into its value's word, then sign-extended
        first = np.cumsum(width) - width
        offset = np.arange(int(width.sum())) - np.repeat(first, width)
        bits = window[np.repeat(np.cumsum(2 * width) - width, width) + offset].astype(np.uint64)
        unsigned = np.add.reduceat(bits << (np.repeat(width - 1, width) - offset).astype(np.uint64), first)
        pad = (_WORD - width).astype(np.uint64)
        values = (unsigned << pad).view(np.int64) >> pad.view(np.int64)
        # the width is minimal when it is 1 or the payload's bit below the
        # sign bit differs from it
        sign, below = bits[first], bits[np.minimum(first + 1, bits.size - 1)]
        if np.any((width > 1) & (sign == below)):
            raise MalformedStreamError("signed code wider than the minimal width of its value")
        return values

    def check_end(self) -> None:
        """The stream must end here, in zero padding bits short of a byte."""
        rest = self._bits[self._pos :]
        if rest.size >= 8:
            raise MalformedStreamError("trailing bytes after the stream")
        if rest.any():
            raise MalformedStreamError("nonzero padding bits")
