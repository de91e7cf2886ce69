"""The Walsh–Hadamard butterfly keeps np.fft's bits on Z_2^n.

Each transform must equal, byte for byte, the orthonormal length-2 np.fft
along every binary factor (``make_dft`` on (2,)*n), including signed zeros,
strided stacks and row-by-row calls.  The input is never written and every
call returns a fresh array.
"""
import numpy as np
import pytest

from fratio import FiniteAbelianGroup, make_dft, make_wht


def _stack(n: int, rows: int) -> np.ndarray:
    """A (rows, 2^n) complex stack with +0.0 and -0.0 in both parts."""
    rng = np.random.default_rng(1000 + n)
    M = 2**n
    x = rng.standard_normal((rows, M)) + 1j * rng.standard_normal((rows, M))
    re, im = x.real.copy(), x.imag.copy()
    for part in (re, im):
        mask = rng.random(part.shape)
        part[mask < 0.15] = 0.0
        part[mask > 0.85] = -0.0
    re[0] = -0.0  # a row of pure signed zeros
    im[0] = np.where(np.arange(M) % 2, -0.0, 0.0)
    if M >= 4:
        re[1, : M // 2] = -re[1, M // 2 :]  # sums that cancel to a zero
    return re + 1j * im


@pytest.mark.parametrize("n", range(1, 13))
def test_wht_equals_fft_per_binary_axis_bitwise(n):
    wht = make_wht(n)
    dft = make_dft(FiniteAbelianGroup((2,) * n))
    stack = _stack(n, 6)
    before = stack.tobytes()
    strided = stack[::2]  # every other row: not C-contiguous
    assert not strided.flags.c_contiguous
    for wht_transform, dft_transform in (
        (wht._analyze_array, dft._analyze_array),
        (wht._synthesize_array, dft._synthesize_array),
    ):
        for x in (stack, strided, stack[:5], stack[3]):
            got = wht_transform(x)
            assert got.shape == x.shape and got.dtype == np.complex128
            assert got.tobytes() == dft_transform(x).tobytes()
        whole = wht_transform(stack[:5])
        for row in range(5):
            assert whole[row].tobytes() == wht_transform(stack[row]).tobytes()
        first, second = wht_transform(stack), wht_transform(stack)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, stack)
    assert stack.tobytes() == before
