"""Bit-level stream I/O for the bit-packed body of the descriptor format.

The body is a run of unsigned fields, MSB first.  An integer is one
fixed-width field of up to 64 bits or a self-delimiting signed code of 2w
bits: the unary prefix 2^w - 2 (w - 1 ones then a zero), then the
minimal-width w-bit two's-complement payload.  Each value has exactly one
code: the readers reject signed codes wider than their value needs.  Version 2
writes a run of codes as every prefix, then every payload, so the widths are
the gaps between the zeros of the prefix section and every payload is one
gather.  Version 1, still read, puts each prefix right before its payload, so
its reader finds one code after another, each prefix's zero within the next
64 bits.  Both directions work on 64-bit words, not on arrays of one entry
per bit.  ``to_bytes`` packs every field at once, ORing it into the word of
its first bit and spilling the rest into the next word.  The readers read a
field as the 64 bits from its first bit and unpack only the bits that their
count of fields can occupy, the prefix section a bounded chunk at a time, so
their memory follows the count read and not the stream length.
"""
from __future__ import annotations

from array import array

import numpy as np

_WORD = 64  # widest fixed-width field and widest signed payload
_ONES = np.uint64(2**_WORD - 1)
_TOP = np.uint64(2 ** (_WORD - 1))
# _BELOW[e] = 2^(e-1) - 1, the largest value whose bit length is below e
_BELOW = np.array([-1] + [2**e - 1 for e in range(_WORD)], dtype=np.int64)
# bytes of a prefix section unpacked at a time, to one byte per bit
_SCAN_BYTES = 1 << 15


class MalformedStreamError(ValueError):
    """Raised when a descriptor stream is truncated or ill-formed."""


def signed_widths(values) -> np.ndarray:
    """Payload width of each value's signed code, exact over all of int64.

    The width is the bit length of x = v (of -v-1 when v < 0) plus a sign bit,
    so a value's code takes 2 * width bits.  float64(x) has the exponent e of
    that bit length, or one more where rounding carries x up a binade.
    """
    v = np.asarray(values, dtype=np.int64)
    x = v ^ (v >> 63)  # v when v >= 0, -v-1 when v < 0
    e = np.frexp(x)[1]
    return np.add(e, x > _BELOW[e], dtype=np.int64)


def _at(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The 64 bits from each int64 bit offset of words, MSB first; shifts stay below 64."""
    q, r = offsets >> 6, (offsets & 63).view(np.uint64)
    bits = words[q]
    bits <<= r
    q += 1
    r ^= 63
    rest = words[q]
    rest >>= r
    rest >>= 1
    bits |= rest
    return bits


def _signed(words: np.ndarray, offsets: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The width-bit payloads at the bit offsets of words, as int64."""
    payload = _at(words, offsets).view(np.int64)
    # the width is minimal when it is 1 or the payload's bit below the sign
    # bit differs from it
    if np.any((width > 1) & (payload >> 62 == payload >> 63)):
        raise MalformedStreamError("signed code wider than the minimal width of its value")
    return payload >> (_WORD - width)


class BitWriter:
    def __init__(self):
        self._values = [np.empty(0, dtype=np.uint64)]  # the fields
        self._widths = [np.empty(0, dtype=np.uint64)]  # their widths in bits, 1 to 64

    def write_fixed_array(self, values, nbits: int) -> None:
        """Each value in nbits bits, MSB first."""
        values = np.asarray(values).reshape(-1)
        if not 0 <= nbits <= _WORD:
            raise ValueError(f"fixed-width fields hold at most {_WORD} bits, not {nbits}")
        if values.size and (values.min() < 0 or (nbits < _WORD and values.max() >> nbits)):
            raise ValueError(f"cannot write values outside [0, 2^{nbits}) in {nbits} bits")
        if nbits:
            self._values.append(values.astype(np.uint64))
            self._widths.append(np.full(values.size, nbits, dtype=np.uint64))

    def write_signed_sections(self, values) -> None:
        """Signed codes of all values, every prefix and then every payload
        (version 2).  The prefix section is ones but for the zero that ends
        each prefix, written 64 bits a field; as no prefix holds 64 ones,
        every field holds such a zero."""
        v = np.asarray(values, dtype=np.int64).reshape(-1)
        w = signed_widths(v).astype(np.uint64)
        zeros, nbits = np.cumsum(w) - 1, w.sum()
        starts = np.arange(0, int(nbits), _WORD, dtype=np.uint64)
        prefixes = ~np.bitwise_or.reduceat(_TOP >> (zeros & 63), np.searchsorted(zeros, starts))
        widths = np.minimum(nbits - starts, _WORD)
        prefixes >>= _WORD - widths
        self._values += [prefixes, v.view(np.uint64) & _ONES >> (_WORD - w)]
        self._widths += [widths, w]

    def to_bytes(self) -> bytes:
        """Every field so far, packed once, then zero bits up to a whole byte."""
        fields, widths = np.concatenate(self._values), np.concatenate(self._widths)
        if not widths.size:
            return b""
        start = np.cumsum(widths)
        nbits = int(start[-1])
        start -= widths
        shift = start & (_WORD - 1)
        # each field at the top of a word, then at its bit offset in the word
        # of its first bit; the bits past that word's end go to the top of the next
        fields <<= _WORD - widths
        spill = np.flatnonzero(shift + widths > _WORD)
        carry = fields[spill] << (_WORD - shift[spill])
        fields >>= shift
        # no field is wider than a word, so every word up to the last field's
        # first one holds some field's first bit: one OR-reduction per word
        word = start >> 6
        words = np.zeros(int(word[-1]) + 2, dtype=np.uint64)
        first = np.searchsorted(start, np.arange(0, int(start[-1]) + 1, _WORD, dtype=np.uint64))
        words[:-1] = np.bitwise_or.reduceat(fields, first)
        words[word[spill] + 1] |= carry
        return words.astype(">u8").tobytes()[: (nbits + 7) // 8]


class BitReader:
    def __init__(self, data):
        """data: the body as bytes or any byte buffer; it is not copied."""
        self._data = data
        self._size = 8 * len(data)
        self._pos = 0

    def _words(self, nbits: int) -> np.ndarray:
        """The nbits bits from the read position as 64-bit words, then zeros."""
        first, skip = divmod(self._pos, 8)
        nbytes = (skip + nbits + 7) // 8
        bits = int.from_bytes(self._data[first : first + nbytes], "big") >> (8 * nbytes - skip - nbits)
        size = nbits // _WORD + 2
        aligned = (bits & ((1 << nbits) - 1)) << (_WORD * size - nbits)
        return np.frombuffer(aligned.to_bytes(8 * size, "big"), dtype=">u8").astype(np.uint64)

    def read_fixed_array(self, count: int, nbits: int) -> np.ndarray:
        """count values of nbits bits each, as uint64; the words are zero past
        the count * nbits bits, so nbits = 0 reads zeros."""
        if not 0 <= nbits <= _WORD:
            raise ValueError(f"fixed-width fields hold at most {_WORD} bits, not {nbits}")
        if count * nbits > self._size - self._pos:
            raise MalformedStreamError("stream truncated")
        words = self._words(count * nbits)
        self._pos += count * nbits
        return _at(words, np.arange(count, dtype=np.int64) * nbits) >> np.uint64(_WORD - max(nbits, 1))

    def read_signed_array(self, count: int) -> np.ndarray:
        """count signed codes, each prefix right before its payload (version 1), as int64."""
        if 2 * count > self._size - self._pos:
            raise MalformedStreamError("stream truncated")
        # no code is longer than 2 * _WORD bits, so count codes lie in this
        # window; the zero bit at its end stands in for a missing zero
        end = min(self._size - self._pos, 2 * _WORD * count)
        words = self._words(end)
        zeros, mask, starts, pos = memoryview(~words), 2**_WORD - 1, array("q"), 0
        for _ in range(count):
            starts.append(pos)
            q, r = pos >> 6, pos & 63
            # one more than the ones before the first zero of the 64 bits from pos
            width = _WORD + 1 - ((zeros[q] << r | zeros[q + 1] >> (_WORD - r)) & mask).bit_length()
            if width > _WORD:
                raise MalformedStreamError("signed width prefix too long")
            pos += 2 * width
            if pos > end:
                raise MalformedStreamError("stream truncated")
        starts.append(pos)
        self._pos += pos
        starts = np.frombuffer(starts, dtype=np.int64)
        width = np.diff(starts) >> 1
        return _signed(words, starts[:-1] + width, width)

    def read_signed_sections(self, count: int) -> np.ndarray:
        """count signed codes, every prefix and then every payload (version 2), as int64."""
        if 2 * count > self._size - self._pos:
            raise MalformedStreamError("stream truncated")
        # the widths are the gaps between the zeros that end the prefixes;
        # each zero lies within 64 bits of the last, so the scan unpacks no
        # more than 64 bits a code still to find
        parts, left, last, start = [np.empty(0, dtype=np.int64)], count, self._pos - 1, self._pos
        while left:
            stop = min(self._size, last + 1 + _WORD * left, start + 8 * _SCAN_BYTES)
            first = start // 8
            bits = np.unpackbits(~np.frombuffer(self._data, np.uint8, (stop + 7) // 8 - first, first)).view(bool)
            zeros = np.flatnonzero(bits[start - 8 * first : stop - 8 * first])[:left] + start
            parts.append(np.diff(zeros, prepend=last))
            left -= zeros.size
            last = int(zeros[-1]) if zeros.size else last
            if parts[-1].max(initial=0) > _WORD or (left and stop - last > _WORD):
                raise MalformedStreamError("signed width prefix too long")
            if left and stop == self._size:
                raise MalformedStreamError("stream truncated")
            start = stop
        width = np.concatenate(parts)
        nbits = int(width.sum())  # the length of each section
        if 2 * nbits > self._size - self._pos:
            raise MalformedStreamError("stream truncated")
        self._pos += nbits
        words = self._words(nbits)
        self._pos += nbits
        return _signed(words, np.cumsum(width) - width, width)

    def check_end(self) -> None:
        """The stream must end here, in zero padding bits short of a byte."""
        rest = self._size - self._pos
        if rest >= 8:
            raise MalformedStreamError("trailing bytes after the stream")
        if rest and self._data[-1] & ((1 << rest) - 1):
            raise MalformedStreamError("nonzero padding bits")
