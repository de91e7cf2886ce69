"""The scale contract: a signal times alpha = 2^j gives the same scale-free
outputs, bit for bit, and outputs scaled by exactly alpha (or alpha^2).

Scaling by a power of two is exact in floating point while nothing overflows
or underflows, so for |j| <= 300 on M = 256 every entry point below must pass
the factor straight through.  Ratios, s, supports, codes, bit counts and
localization reports are scale-free; coefficient norms, tails, decoded values
and MSEs scale.  Recovery and the MSE bound do not follow the scale yet and
are not covered here.
"""
import math

import numpy as np
import pytest

from fratio import FiniteAbelianGroup, ProductDecomposition, Signal, localization_check, parse_system
from fratio.codec import Descriptor, rd_decode, rd_encode
from fratio.harness import fr_report
from fratio.ratio import fourier_ratio, soft_sparsify
from fratio.signals import generate_signal
from fratio.sqdim import sq_mse

SYSTEMS = ["dft:256", "wht:8", "haar:256", "gabor:N=16,T=16"]
EXPONENTS = [-300, -40, 0, 40, 300]


def _scaled(f: Signal, j: int) -> Signal:
    return Signal(f.group, np.ldexp(f.values.view(np.float64), j).view(np.complex128))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("spec", SYSTEMS)
class TestScaleContract:
    def test_ratio_and_report(self, spec, j):
        system = parse_system(spec)
        f = generate_signal(system, "harmonic")
        base, report = fr_report(system, f), fr_report(system, _scaled(f, j))
        assert report["fr"] == base["fr"] == fourier_ratio(system.analyze(_scaled(f, j)))
        for key in ("coefficient_l1", "coefficient_l2"):
            assert report[key] == math.ldexp(base[key], j)
        for scaled, unscaled in zip(report["sparsify"], base["sparsify"], strict=True):
            assert (scaled["eta"], scaled["s"]) == (unscaled["eta"], unscaled["s"])
            assert (scaled["tail_l2"], scaled["tail_l1"]) == (math.ldexp(unscaled["tail_l2"], j), math.ldexp(unscaled["tail_l1"], j))

    @pytest.mark.parametrize("signal", ["harmonic", "sparse:3"])
    def test_soft_sparsify(self, spec, j, signal):
        system = parse_system(spec)
        f = generate_signal(system, signal, seed=5)
        c, scaled_c = system.analyze(f), system.analyze(_scaled(f, j))
        base, scaled = soft_sparsify(c, 0.5), soft_sparsify(scaled_c, 0.5)
        assert base.s < system.size
        assert _same_bits(scaled.support, base.support)
        assert (scaled.s, scaled.ratio) == (base.s, base.ratio)
        assert (scaled.tail_l2, scaled.tail_l1) == (math.ldexp(base.tail_l2, j), math.ldexp(base.tail_l1, j))

    @pytest.mark.parametrize("signal,eps", [("random", 0.2), ("sparse:3", 0.8)])
    def test_codec_round_trip(self, spec, j, signal, eps):
        system = parse_system(spec)
        f = generate_signal(system, signal, seed=7)
        (d, account), (scaled_d, scaled_account) = rd_encode(system, f, eps), rd_encode(system, _scaled(f, j), eps)
        assert scaled_account == account
        assert scaled_d.coeff_l2 == math.ldexp(d.coeff_l2, j) and scaled_d.delta == math.ldexp(d.delta, j)
        blob, scaled_blob = d.serialize(), scaled_d.serialize()
        assert len(scaled_blob) == len(blob) and scaled_blob[4] == blob[4] == 2
        back = Descriptor.deserialize(scaled_blob)
        for name in ("support", "q_re", "q_im"):
            assert _same_bits(getattr(back, name), getattr(d, name))
        assert _same_bits(rd_decode(scaled_blob).values, _scaled(rd_decode(blob), j).values)

    def test_sq_mse(self, spec, j):
        system = parse_system(spec)
        f = generate_signal(system, "random", seed=3)
        base, scaled = sq_mse(system, f, k=64, trials=50, seed=3), sq_mse(system, _scaled(f, j), k=64, trials=50, seed=3)
        assert scaled.empirical_mse == math.ldexp(base.empirical_mse, 2 * j)
        assert scaled.std_error == math.ldexp(base.std_error, 2 * j)


@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("transform", ["rowwise", "full"])
@pytest.mark.parametrize("factors,h_count,signal", [((16, 16), 1, "random"), ((2,) * 8, 4, "random"), ((16, 16), 1, "rowdelta:1")])
def test_localization_report(factors, h_count, signal, transform, j):
    group = FiniteAbelianGroup(factors)
    f = generate_signal(parse_system("dft:" + "x".join(map(str, factors))), signal, seed=11)
    d = ProductDecomposition(group, h_count)
    assert localization_check(_scaled(f, j), d, transform) == localization_check(f, d, transform)


def test_sq_mse_std_error_stays_finite_at_1e150():
    # the spread of per-trial errors near 1e300 must not square past float64
    system = parse_system("dft:256")
    f = generate_signal(system, "random", seed=3)
    base = sq_mse(system, f, k=64, trials=200, seed=3)
    report = sq_mse(system, Signal(f.group, f.values * 1e150), k=64, trials=200, seed=3)
    assert math.isfinite(report.std_error)
    assert report.std_error == pytest.approx(1e300 * base.std_error, rel=1e-9)


# At an alpha that is not a power of two every product rounds, so continuous
# outputs agree with the alpha-scaled (or alpha^2-scaled) ones to 1e-12
# relative, and selections among distinct magnitudes stay the same.  On an
# exactly sparse signal, the terms past its support are rounding noise whose
# order the scaling reshuffles, so only the ratio, s and the distortion budget
# carry over there.  s = ceil(FR^2 / eta^2), and sparse:3's three unit
# coefficients make FR^2 / eta^2 an integer (12 at eta 0.5, 75 at eta 0.2) up
# to rounding, which then puts the ceiling on either side.
ALPHAS = [1e-150, 1e-6, 3.0, 1e6, 1e150]


def _times(f: Signal, alpha: float) -> Signal:
    return Signal(f.group, f.values * alpha)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


def _same_count(scaled_s: int, s: int, ratio: float, eta: float) -> bool:
    """Equal counts, or counts one apart where FR^2 / eta^2 is an integer to 1e-12."""
    x = ratio * ratio / (eta * eta)
    return scaled_s == s or (abs(scaled_s - s) == 1 and abs(x - round(x)) <= 1e-12 * x)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SYSTEMS)
class TestScaleContractAtAnyAlpha:
    def test_ratio_and_report(self, spec, alpha):
        system = parse_system(spec)
        f = generate_signal(system, "harmonic")
        base, report = fr_report(system, f), fr_report(system, _times(f, alpha))
        assert _close(report["fr"], base["fr"])
        for key in ("coefficient_l1", "coefficient_l2"):
            assert _close(report[key], alpha * base[key])
        for scaled, unscaled in zip(report["sparsify"], base["sparsify"], strict=True):
            assert (scaled["eta"], scaled["s"]) == (unscaled["eta"], unscaled["s"])
            assert _close(scaled["tail_l2"], alpha * unscaled["tail_l2"])
            assert _close(scaled["tail_l1"], alpha * unscaled["tail_l1"])

    def test_soft_sparsify_keeps_the_harmonic_support(self, spec, alpha):
        system = parse_system(spec)
        f = generate_signal(system, "harmonic")
        c = system.analyze(f)
        base, scaled = soft_sparsify(c, 0.5), soft_sparsify(system.analyze(_times(f, alpha)), 0.5)
        assert base.s < system.size
        assert _same_bits(scaled.support, base.support)
        assert scaled.s == base.s and _close(scaled.ratio, base.ratio)
        assert _close(scaled.tail_l2, alpha * base.tail_l2) and _close(scaled.tail_l1, alpha * base.tail_l1)

    def test_codec_round_trip(self, spec, alpha):
        system = parse_system(spec)
        f = generate_signal(system, "random", seed=7)
        (d, account), (scaled_d, scaled_account) = rd_encode(system, f, 0.2), rd_encode(system, _times(f, alpha), 0.2)
        for name in ("header_bits", "support_bits", "coefficient_bits", "total"):
            assert getattr(scaled_account, name) == getattr(account, name)
        assert scaled_account.bound_terms.keys() == account.bound_terms.keys()
        for key, value in account.bound_terms.items():
            assert _close(scaled_account.bound_terms[key], value)
        assert _close(scaled_d.coeff_l2, alpha * d.coeff_l2) and _close(scaled_d.delta, alpha * d.delta)
        blob, scaled_blob = d.serialize(), scaled_d.serialize()
        assert len(scaled_blob) == len(blob)
        back = Descriptor.deserialize(scaled_blob)
        for name in ("support", "q_re", "q_im"):
            assert _same_bits(getattr(back, name), getattr(d, name))
        expected = alpha * rd_decode(blob).values
        assert np.abs(rd_decode(scaled_blob).values - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_exactly_sparse_signal_keeps_ratio_s_and_budget(self, spec, alpha):
        system = parse_system(spec)
        f = generate_signal(system, "sparse:3", seed=7)
        scaled_f = _times(f, alpha)
        c, scaled_c = system.analyze(f), system.analyze(scaled_f)
        ratio = fourier_ratio(c)
        assert _close(fourier_ratio(scaled_c), ratio)
        assert _same_count(soft_sparsify(scaled_c, 0.5).s, soft_sparsify(c, 0.5).s, ratio, 0.5)
        d, _ = rd_encode(system, f, 0.8)
        scaled_d, _ = rd_encode(system, scaled_f, 0.8)
        assert _same_count(scaled_d.k, d.k, ratio, 0.2)
        distortion = np.linalg.norm(rd_decode(scaled_d.serialize()).values - scaled_f.values)
        assert distortion <= 0.8 * np.linalg.norm(scaled_f.values)

    def test_sq_mse(self, spec, alpha):
        system = parse_system(spec)
        f = generate_signal(system, "random", seed=3)
        base, scaled = sq_mse(system, f, k=64, trials=50, seed=3), sq_mse(system, _times(f, alpha), k=64, trials=50, seed=3)
        assert _close(scaled.empirical_mse, alpha**2 * base.empirical_mse)
        assert _close(scaled.std_error, alpha**2 * base.std_error)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("transform", ["rowwise", "full"])
@pytest.mark.parametrize("factors,h_count,signal", [((16, 16), 1, "random"), ((2,) * 8, 4, "random"), ((16, 16), 1, "rowdelta:1")])
def test_localization_report_at_any_alpha(factors, h_count, signal, transform, alpha):
    group = FiniteAbelianGroup(factors)
    f = generate_signal(parse_system("dft:" + "x".join(map(str, factors))), signal, seed=11)
    d = ProductDecomposition(group, h_count)
    base, scaled = localization_check(f, d, transform), localization_check(_times(f, alpha), d, transform)
    for name in ("max_slice_fr", "global_fr", "lower_bound"):
        assert _close(getattr(scaled, name), getattr(base, name))
    for name in ("holds", "achieving_k", "transform", "skipped_zero_slices"):
        assert getattr(scaled, name) == getattr(base, name)
