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
