import math
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from fratio import (
    FiniteAbelianGroup,
    covering_params,
    make_dft,
    make_wht,
    pointwise_variance,
    quantize_functional,
    quantizer_deviation_bound,
    sq_dim_log2,
    sq_mse,
    sq_sample,
)
from fratio.groups import Signal
from fratio.harness import derive_seed
from fratio.signals import rademacher_signal
from fratio.sqdim import CoveringParams, RandomFunctional, _unit_phases

from conftest import complex_gaussian


class TestSqSample:
    def test_sampler_matches_weighted_distribution(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = complex_gaussian(system.group, 0)
        g = system.analyze(f).entries
        probs = np.abs(g) / np.sum(np.abs(g))
        draws = 100_000
        P = sq_sample(system, f, draws, seed=1)
        counts = np.bincount(P.indices, minlength=16)
        _, pvalue = chisquare(counts, probs * draws)
        assert pvalue > 0.001

    def test_phases_are_unit_modulus(self):
        system = make_dft(FiniteAbelianGroup((12,)))
        P = sq_sample(system, complex_gaussian(system.group, 2), 64, seed=3)
        assert np.allclose(np.abs(P.phases), 1.0, atol=1e-12)

    def test_phases_of_subnormal_coefficients_are_unit_modulus(self):
        # 1 / |g| overflows below about 5.6e-309, and g / |g| with it
        system = make_dft(FiniteAbelianGroup((16,)))
        f = complex_gaussian(system.group, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = sq_sample(system, Signal(f.group, f.values * 1e-320), 64, seed=3)
        assert np.allclose(np.abs(P.phases), 1.0, atol=1e-12)

    def test_only_the_subnormal_phases_are_rescaled(self):
        g = np.array([1 + 1j, 3e-320 - 4e-320j, 0, 2.0**-1024, -5e-324j, 2.0**-1024 + 2.0**-1074, -7.5 + 0.25j])
        mags = np.abs(g)
        unit = _unit_phases(g, mags)
        plain = [0, 5, 6]
        assert unit[plain].tobytes() == (g[plain] / mags[plain]).tobytes()
        assert unit[2] == 0
        assert np.allclose(unit[[1, 3, 4]], [0.6 - 0.8j, 1, -1j], rtol=0, atol=1e-2)
        assert np.allclose(np.abs(unit[[1, 3, 4]]), 1.0, atol=1e-15)

    def test_amplitude_is_l1_over_k(self):
        system = make_wht(3)
        f = rademacher_signal(system.group, 4)
        k = 32
        P = sq_sample(system, f, k, seed=5)
        l1 = system.analyze(f).l1
        assert P.amplitude == pytest.approx(l1 / k)

    def test_rejects_bad_input(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        from fratio.groups import Signal

        with pytest.raises(ValueError):
            sq_sample(system, complex_gaussian(system.group, 0), 0, seed=0)
        with pytest.raises(ValueError):
            sq_sample(system, Signal(system.group, np.zeros(8)), 4, seed=0)


class TestUnbiasedness:
    def test_mean_within_five_sigma_of_exact_variance(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        f = rademacher_signal(system.group, 7)
        var = pointwise_variance(system, f)
        assert np.all(var > -1e-10)
        n = 4000
        acc = np.zeros(8, dtype=np.complex128)
        for i in range(n):
            acc += sq_sample(system, f, 1, seed=derive_seed(300, i)).evaluate()
        mean = acc / n
        # complex deviation: each of re/im has variance at most var, so a
        # 5 sigma radius on the modulus is a conservative acceptance region
        sigma = np.sqrt(np.maximum(var, 0.0) / n)
        assert np.all(np.abs(mean - f.values) <= 5 * np.sqrt(2) * sigma + 1e-12)

    def test_pointwise_variance_against_empirical(self):
        system = make_wht(3)
        f = rademacher_signal(system.group, 9)
        var = pointwise_variance(system, f)
        n = 4000
        sq_acc = np.zeros(8)
        for i in range(n):
            Z = sq_sample(system, f, 1, seed=derive_seed(301, i)).evaluate()
            sq_acc += np.abs(Z - f.values) ** 2
        empirical = sq_acc / n
        assert np.all(np.abs(empirical - var) <= 0.15 * np.maximum(var, 1.0))


class TestMseBound:
    def test_wht_rademacher(self):
        system = make_wht(4)
        f = rademacher_signal(system.group, 11)
        report = sq_mse(system, f, k=64, trials=200, seed=13)
        assert report.empirical_mse <= report.bound

    def test_dft_rademacher(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = rademacher_signal(system.group, 17)
        report = sq_mse(system, f, k=64, trials=200, seed=19)
        assert report.empirical_mse <= report.bound

    def test_one_over_k_scaling(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = rademacher_signal(system.group, 23)
        a = sq_mse(system, f, k=32, trials=600, seed=29)
        b = sq_mse(system, f, k=64, trials=600, seed=31)
        assert 0.4 <= b.empirical_mse / a.empirical_mse <= 0.6
        assert b.bound == pytest.approx(a.bound / 2)

    def test_distribution_validation(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        f = rademacher_signal(system.group, 1)
        with pytest.raises(ValueError):
            sq_mse(system, f, k=4, trials=2, seed=0, distribution=np.ones(8))


class TestCoveringParams:
    def test_small_example(self):
        params = covering_params(4, 0.5, 1.0)
        assert (params.k, params.N1, params.N2) == (256, 2048, 16)

    def test_second_example(self):
        params = covering_params(64, 0.125, 2.0)
        assert (params.k, params.N1, params.N2) == (1024, 2048, 32)

    def test_tau_floor(self):
        with pytest.raises(ValueError):
            covering_params(16, 0.1, 1.0)

    def test_budget_terms_below_one_sixteenth(self):
        for M, tau, r in [(4, 0.5, 1.0), (64, 0.125, 2.0), (256, 0.0625, 1.5)]:
            p = covering_params(M, tau, r)
            assert M * tau**2 * r**2 / p.k <= 1.0 / 16**2 * (1 + 1e-12)
            assert tau * r * math.sqrt(M) / p.N2 <= 1.0 / 16 * (1 + 1e-12)
            assert tau * p.k / p.N1 <= 1.0 / 16 * (1 + 1e-12)


class TestQuantizeFunctional:
    def _functional(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = rademacher_signal(system.group, 37)
        return system, f, sq_sample(system, f, 64, seed=41)

    def test_deviation_within_bound(self):
        system, f, P = self._functional()
        g = system.analyze(f).entries
        r = float(np.sum(np.abs(g)) / np.linalg.norm(g))
        params = covering_params(16, system.tau, r)
        Q = quantize_functional(P, params)
        deviation = float(np.max(np.abs(P.evaluate() - Q.evaluate())))
        assert deviation <= quantizer_deviation_bound(params, P.k) + 1e-12

    def test_fine_grid_refinement(self):
        system, f, P = self._functional()
        g = system.analyze(f).entries
        r = float(np.sum(np.abs(g)) / np.linalg.norm(g))
        fine = CoveringParams(M=16, tau=system.tau, r=r, k=P.k, N1=10**6, N2=10**6)
        Q = quantize_functional(P, fine)
        deviation = float(np.max(np.abs(P.evaluate() - Q.evaluate())))
        assert deviation < 1e-3
        assert deviation <= quantizer_deviation_bound(fine, P.k) + 1e-12

    def test_amplitude_cap_enforced(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        params = covering_params(16, system.tau, 1.0)
        P = RandomFunctional(
            system=system,
            indices=np.zeros(2, dtype=np.int64),
            amplitude=100.0,
            phases=np.ones(2, dtype=np.complex128),
            seed=0,
        )
        with pytest.raises(ValueError):
            quantize_functional(P, params)


class TestSqDimLog2:
    def test_hand_value(self):
        assert sq_dim_log2(4, 0.5, 1.0) == pytest.approx(1547.0007042690113, rel=1e-12)

    def test_mpmath_big_integer_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for M, tau, r in [(2, 2**-0.5, 1.0), (4, 0.5, 1.0), (8, 0.5, 1.5)]:
            E = 16**2 * M * tau**2 * r**2
            value = (
                mpmath.mpf(M) ** E
                * (mpmath.mpf(16**3) * mpmath.mpf(tau) ** 3 * M * mpmath.mpf(r) ** 2 + 1)
                * (16 * mpmath.mpf(tau) * r * mpmath.sqrt(M)) ** E
            )
            oracle = float(mpmath.log(value, 2))
            assert sq_dim_log2(M, tau, r) == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            sq_dim_log2(16, 0.1, 1.0)
        with pytest.raises(ValueError):
            sq_dim_log2(16, 0.25, 0.5)


class TestMseInputs:
    @pytest.mark.parametrize("k,trials", [(0, 10), (4, 0)])
    def test_rejects_empty_runs(self, k, trials):
        system = make_dft(FiniteAbelianGroup((8,)))
        f = rademacher_signal(system.group, 1)
        with pytest.raises(ValueError):
            sq_mse(system, f, k=k, trials=trials, seed=0)

    @pytest.mark.parametrize(
        "distribution",
        [
            [np.nan, 0.5, 0.25, 0.25],  # NaN passed the sum test and made the report NaN
            [np.inf, 0.5, 0.25, 0.25],
            np.full((4, 2), 0.125),
        ],
    )
    def test_rejects_non_finite_or_misshapen_distribution(self, distribution):
        system = make_dft(FiniteAbelianGroup((4,)))
        f = rademacher_signal(system.group, 1)
        with pytest.raises(ValueError, match="probability vector"):
            sq_mse(system, f, k=4, trials=3, seed=0, distribution=np.array(distribution))


class TestOverflowingSignal:
    def test_an_infinite_l1_norm_is_refused_by_both_draws(self):
        system = make_dft(FiniteAbelianGroup((256,)))
        f = complex_gaussian(system.group, 0)
        huge = Signal(f.group, f.values * 1e306)
        with pytest.raises(ValueError, match="l1 norm is inf"):
            sq_sample(system, huge, 8, seed=0)
        with pytest.raises(ValueError, match="l1 norm is inf"):
            sq_mse(system, huge, k=8, trials=10, seed=0)

    def test_a_non_finite_trial_error_is_refused(self):
        # l1 is finite here, but the squared errors overflow
        system = make_dft(FiniteAbelianGroup((16,)))
        f = complex_gaussian(system.group, 0)
        with pytest.raises(ValueError, match="squared error is not finite"):
            sq_mse(system, Signal(f.group, f.values * 1e306), k=8, trials=10, seed=0)
