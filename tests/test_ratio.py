import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fratio import CoefficientVector, FiniteAbelianGroup, Signal, fourier_ratio, harmonic_model, soft_sparsify, sorted_decay_check
from fratio.ratio import top_indices

nonzero_vectors = arrays(
    np.complex128,
    st.integers(min_value=1, max_value=256),
    elements=st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
).filter(lambda v: np.linalg.norm(v) > 1e-12)

# few distinct parts, so that magnitudes tie often, with zeros, NaN and +-inf
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.nan, math.inf, -math.inf]) | st.floats()


class TestFourierRatio:
    def test_single_spike(self):
        c = np.zeros(8, complex)
        c[3] = 2.5j
        assert fourier_ratio(c) == pytest.approx(1.0)

    def test_flat_vector(self):
        c = np.exp(2j * np.pi * np.arange(9) / 9)
        assert fourier_ratio(c) == pytest.approx(3.0)

    def test_direct_arithmetic(self):
        c = np.array([1.0, 0.5, 1 / 3, 0.25])
        expected = (25 / 12) / math.sqrt(205 / 144)
        assert fourier_ratio(c) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.7460, abs=1e-4)

    @pytest.mark.parametrize("alpha", [2.0**-600, 2.0**600, 1e-160, 1e160], ids=["2^-600", "2^600", "1e-160", "1e160"])
    def test_ratio_of_huge_and_tiny_vectors(self, alpha):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        if np.frexp(alpha)[0] == 0.5:  # a power of two: the same bits
            assert fourier_ratio(alpha * c) == fourier_ratio(c)
        else:
            assert fourier_ratio(alpha * c) == pytest.approx(fourier_ratio(c), rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.0**-600, 2.0**600, 1e-170, 1e160], ids=["2^-600", "2^600", "1e-170", "1e160"])
    def test_norms_of_huge_and_tiny_vectors(self, alpha):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        group = FiniteAbelianGroup((64,))
        for make in (lambda a: Signal(group, a), lambda a: CoefficientVector("dft:64", a)):
            l2 = make(v).l2
            assert l2 == float(np.linalg.norm(v))  # the normal range keeps its bits
            if np.frexp(alpha)[0] == 0.5:
                assert make(alpha * v).l2 == alpha * l2
            else:
                assert make(alpha * v).l2 == pytest.approx(alpha * l2, rel=1e-12, abs=0)

    def test_ratio_of_subnormal_vector(self):
        assert fourier_ratio(np.array([5e-324, 0.0, 5e-324j])) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            fourier_ratio(np.zeros(4))

    @settings(max_examples=200, deadline=None)
    @given(nonzero_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance_and_range(self, v, lam):
        r = fourier_ratio(v)
        assert abs(fourier_ratio(lam * v) - r) <= 1e-12 * r
        nnz = int(np.count_nonzero(v))
        assert 1.0 - 1e-12 <= r <= math.sqrt(nnz) * (1 + 1e-12)


class TestSoftSparsify:
    def test_two_flat_entries(self):
        res = soft_sparsify(np.array([1.0, 1.0, 0.0, 0.0]), 0.9)
        assert res.s == 3
        assert res.tail_l2 == pytest.approx(0.0, abs=1e-15)

    def test_already_sparse(self):
        c = np.zeros(16, complex)
        c[7] = 1.0
        for eta in (0.1, 0.5, 0.9):
            res = soft_sparsify(c, eta)
            assert res.s == min(16, math.ceil(1 / eta**2))
            assert res.tail_l2 == 0.0
            assert res.support[0] == 7 or 7 in res.support

    def test_harmonic_tail_against_exhaustive_oracle(self):
        c = harmonic_model(64)
        res = soft_sparsify(c, 0.5)
        l2 = np.linalg.norm(c)
        # exhaustive oracle: the tail is the sum over the dropped entries
        mags = np.sort(np.abs(c))[::-1]
        oracle_tail = math.sqrt(float(np.sum(mags[res.s :] ** 2)))
        assert res.tail_l2 == pytest.approx(oracle_tail, rel=1e-12)
        assert res.tail_l2 <= 0.5 * l2

    def test_tie_break_lowest_index(self):
        c = np.array([1.0, 2.0, 1.0, 2.0])
        assert list(top_indices(c, 3)) == [0, 1, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_PARTS, _PARTS), min_size=1, max_size=40), st.data())
    def test_top_indices_match_a_stable_sort(self, parts, data):
        c = np.array([complex(re, im) for re, im in parts])
        s = data.draw(st.sampled_from([1, c.size]) | st.integers(0, c.size))
        expected = np.sort(np.argsort(-np.abs(c), kind="stable")[:s])
        assert np.array_equal(top_indices(c, s), expected)

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            soft_sparsify(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            soft_sparsify(np.ones(4), 1.0)
        with pytest.raises(ValueError):
            soft_sparsify(np.zeros(4), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(nonzero_vectors, st.floats(min_value=0.05, max_value=0.95))
    def test_tail_guarantee(self, v, eta):
        res = soft_sparsify(v, eta)
        l2 = float(np.linalg.norm(v))
        assert res.tail_l2 <= eta * l2 * (1 + 1e-9)

    def test_tail_monotone_in_s(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        tails = []
        for s in range(1, 65):
            idx = top_indices(v, s)
            kept = np.zeros_like(v)
            kept[idx] = v[idx]
            tails.append(np.linalg.norm(v - kept))
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_adversarial_decays(self):
        for alpha in (0.5, 1.0, 2.0):
            v = np.arange(1, 257, dtype=float) ** -alpha
            for eta in (0.1, 0.3, 0.7):
                res = soft_sparsify(v, eta)
                assert res.tail_l2 <= eta * np.linalg.norm(v)


class TestSortedDecayCheck:
    def test_length_one(self):
        assert sorted_decay_check(np.array([2.0j]))

    def test_flat_four(self):
        assert sorted_decay_check(np.ones(4))

    def test_random_sweep(self):
        rng = np.random.default_rng(17)
        for trial in range(1000):
            n = int(rng.integers(1, 257))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert sorted_decay_check(v)


class TestHarmonicModel:
    def test_m3_values(self):
        c = harmonic_model(3)
        assert np.allclose(c, [1, 0.5, 1 / 3])
        assert np.sum(np.abs(c)) == pytest.approx(11 / 6)
        assert np.sum(np.abs(c)) >= math.log(3)

    def test_ratio_lower_bound(self):
        for M in (8, 64, 512):
            c = harmonic_model(M)
            assert fourier_ratio(c) >= math.sqrt(6) / math.pi * math.log(M)
            assert np.sum(np.abs(c) ** 2) <= math.pi**2 / 6

    def test_tail_integral_comparison(self):
        # exact comparison: sum_{j=S+1}^{M} 1/j >= log((M+1)/(S+1))
        for M in (3, 10, 100):
            c = np.abs(harmonic_model(M))
            for S in range(0, M):
                tail = float(np.sum(c[S:]))
                assert tail >= math.log((M + 1) / (S + 1)) - 1e-12

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            harmonic_model(2)
