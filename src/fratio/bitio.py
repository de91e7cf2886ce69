"""Bit-level stream I/O for the bit-packed body of the descriptor format.

The body is a run of unsigned fields of 1 to 64 bits, MSB first.  An integer
is one fixed-width field or a self-delimiting signed code of two width-w
fields: the unary prefix 2^w - 2 (w - 1 ones then a zero) and the minimal-width
two's-complement payload.  Each value has exactly one code: the reader rejects
signed codes wider than their value needs.  Both directions work on 64-bit
words, not on arrays of one entry per bit.  ``to_bytes`` packs every field at
once, ORing it into the word of its first bit and spilling the rest into the
next word.  The reader reads a field as the 64 bits from its first bit,
turns into words only the bits its fields can occupy, and finds signed codes
through jump tables of a few thousand words at a time, so its memory follows
the count read and not the stream length.
"""
from __future__ import annotations

from array import array

import numpy as np

_WORD = 64  # widest fixed-width field and widest signed payload
_ONES = np.uint64(2**_WORD - 1)
# _BELOW[e] = 2^(e-1) - 1, the largest value whose bit length is below e
_BELOW = np.array([-1] + [2**e - 1 for e in range(_WORD)], dtype=np.int64)
# words per jump table of the signed-code walk, so its temporaries stay near
# 5 MiB however long the signed section claims to be
_CHUNK_WORDS = 1 << 12
# for each byte's four bit pairs, MSB first: the offset of the pair's first
# zero bit, or 2^62 (past any stream) when both bits are ones
_PAIR_ZERO = np.array([0, 0, 1, 2**62])[(np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3]


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


def _jumps(words: np.ndarray, base: int) -> np.ndarray:
    """The next code start after each of the 32 * _CHUNK_WORDS pairs from
    pair ``base`` (a multiple of 32), both relative to ``base``.

    Codes are 2w bits long, so they start at pairs: a code at pair j of width
    w = (first zero at or after bit 2j) - 2j + 1 is followed by the next at
    pair j + w.  The table looks one word past its end, so every width up to
    64 is exact and every longer one reads as longer than 64.
    """
    first = base // 32
    chunk = words[first : first + _CHUNK_WORDS + 1]
    pairs = np.arange(32 * chunk.size)
    zeros = _PAIR_ZERO[chunk.astype(">u8").view(np.uint8)].reshape(-1) + 2 * pairs
    return (np.minimum.accumulate(zeros[::-1])[::-1] - pairs + 1)[: 32 * _CHUNK_WORDS]


def _at(words: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The 64 bits from each bit offset of words, MSB first; shifts stay below 64."""
    q, r = offsets >> 6, (offsets & 63).astype(np.uint64)
    return (words[q] << r) | (words[1:][q] >> (63 - r) >> 1)


class BitWriter:
    def __init__(self):
        self._values = [np.empty(0, dtype=np.uint64)]  # the fields
        self._widths = [np.empty(0, dtype=np.int64)]  # their widths in bits, 1 to 64

    def write_fixed_array(self, values, nbits: int) -> None:
        """Each value in nbits bits, MSB first."""
        values = np.asarray(values).reshape(-1)
        if not 0 <= nbits <= _WORD:
            raise ValueError(f"fixed-width fields hold at most {_WORD} bits, not {nbits}")
        if values.size and (values.min() < 0 or (nbits < _WORD and values.max() >> nbits)):
            raise ValueError(f"cannot write values outside [0, 2^{nbits}) in {nbits} bits")
        if nbits:
            self._values.append(values.astype(np.uint64))
            self._widths.append(np.full(values.size, nbits, dtype=np.int64))

    def write_signed_array(self, values) -> None:
        """Signed codes of all values, back to back."""
        v = np.asarray(values, dtype=np.int64).reshape(-1)
        width = signed_widths(v)
        ones = _ONES >> (_WORD - width).astype(np.uint64)
        self._values.append(np.column_stack((ones ^ 1, v.view(np.uint64) & ones)).reshape(-1))
        self._widths.append(np.repeat(width, 2))

    def to_bytes(self) -> bytes:
        """Every field so far, packed once, then zero bits up to a whole byte."""
        values, widths = np.concatenate(self._values), np.concatenate(self._widths)
        if not widths.size:
            return b""
        ends = np.cumsum(widths)
        start = ends - widths
        word, shift, w = start >> 6, (start & 63).astype(np.uint64), widths.astype(np.uint64)
        # no field is wider than a word, so every word up to the last field's
        # first one holds some field's first bit: one OR-reduction per word
        words = np.zeros(int(word[-1]) + 2, dtype=np.uint64)
        first = np.searchsorted(start, np.arange(0, int(start[-1]) + 1, _WORD))
        words[:-1] = np.bitwise_or.reduceat((values << (_WORD - w)) >> shift, first)
        # the bits past a word's end go to the top of the next word
        spill = np.flatnonzero(shift + w > _WORD)
        words[word[spill] + 1] |= values[spill] << (2 * _WORD - shift[spill] - w[spill])
        return words.astype(">u8").tobytes()[: (int(ends[-1]) + 7) // 8]


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
        """count signed codes, as int64."""
        if 2 * count > self._size - self._pos:
            raise MalformedStreamError("stream truncated")
        # no code is longer than 2 * _WORD bits, so count codes lie in this
        # window; the zero bit at its end stands in for a missing zero
        end = min(self._size - self._pos, 2 * _WORD * count)
        words = self._words(end)
        last = end // 2
        # the walk runs over jump tables of _CHUNK_WORDS words; the first
        # start past a table begins the next one at its word
        parts, base, pos, left = [], 0, 0, count
        while True:
            jump = memoryview(_jumps(words, base))
            starts = array("q")
            append, limit = starts.append, last - base
            try:
                for _ in range(left):
                    append(pos)
                    pos = jump[pos]
                    if pos > limit:
                        break
            except IndexError:  # pos is past this table
                starts.pop()
                parts.append(np.frombuffer(starts, dtype=np.int64) + base)
                left -= len(starts)
                base, pos = base + pos - pos % 32, pos % 32
                continue
            append(pos)
            parts.append(np.frombuffer(starts, dtype=np.int64) + base)
            break
        pos += base
        starts = np.concatenate(parts)
        width = np.diff(starts)
        if width.max(initial=0) > _WORD:
            raise MalformedStreamError("signed width prefix too long")
        if pos > last:
            raise MalformedStreamError("stream truncated")
        self._pos += 2 * pos
        # a payload starts at bit 2 * start + width = start + next start
        payload = _at(words, starts[:-1] + starts[1:]).view(np.int64)
        # the width is minimal when it is 1 or the payload's bit below the
        # sign bit differs from it
        if np.any((width > 1) & (payload >> 62 == payload >> 63)):
            raise MalformedStreamError("signed code wider than the minimal width of its value")
        return payload >> (_WORD - width)

    def check_end(self) -> None:
        """The stream must end here, in zero padding bits short of a byte."""
        rest = self._size - self._pos
        if rest >= 8:
            raise MalformedStreamError("trailing bytes after the stream")
        if rest and self._data[-1] & ((1 << rest) - 1):
            raise MalformedStreamError("nonzero padding bits")
