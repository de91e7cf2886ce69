import math

import numpy as np
import pytest

from fratio import (
    FiniteAbelianGroup,
    Signal,
    make_dft,
    make_gabor_block,
    make_haar,
    make_wht,
    rd_bit_bound,
    rd_bit_bound_gabor,
    rd_decode,
    rd_encode,
)
from fratio.bitio import MalformedStreamError
from fratio.codec import Descriptor
from fratio.harness import derive_seed
from fratio.ratio import soft_sparsify
from fratio.signals import harmonic_signal, sparse_signal

from conftest import complex_gaussian


class TestCodecRoundtrip:
    def test_single_basis_function(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        phi = system.basis_matrix()
        from fratio.groups import Signal

        f = Signal(system.group, phi[:, 5])
        descriptor, _ = rd_encode(system, f, 0.2)
        decoded = rd_decode(descriptor)
        assert np.linalg.norm(decoded.values - f.values) <= 0.2 * f.l2

    def test_harmonic_fixture(self):
        system = make_dft(FiniteAbelianGroup((256,)))
        f = harmonic_signal(system)
        descriptor, _ = rd_encode(system, f, 0.2)
        decoded = rd_decode(descriptor.serialize())
        assert np.linalg.norm(decoded.values - f.values) <= 0.2 * f.l2

    @pytest.mark.parametrize(
        "system",
        [
            make_dft(FiniteAbelianGroup((32,))),
            make_dft(FiniteAbelianGroup((4, 6))),
            make_wht(5),
            make_gabor_block(8, 4),
            make_haar(32),
        ],
        ids=lambda s: s.system_id,
    )
    def test_distortion_guarantee_sweep(self, system):
        for seed in range(25):
            f = complex_gaussian(system.group, derive_seed(200, seed))
            for eps in (0.05, 0.1, 0.2, 0.5):
                descriptor, account = rd_encode(system, f, eps)
                decoded = rd_decode(descriptor.serialize())
                err = np.linalg.norm(decoded.values - f.values)
                assert err <= eps * f.l2 * (1 + 1e-9)
                assert account.total == len(descriptor.serialize()) * 8

    def test_quantizer_fixed_points(self):
        # coefficients that land exactly on the delta grid reproduce the
        # truncation error only
        system = make_dft(FiniteAbelianGroup((8,)))
        eps = 0.5
        entries = np.zeros(8, complex)
        entries[:4] = [4.0, 3.0, 2.0, 1.0]
        f = system.synthesize(entries)
        descriptor, _ = rd_encode(system, f, eps)
        k = descriptor.k
        delta = descriptor.delta
        scaled = entries[descriptor.support] / delta
        if np.allclose(scaled, np.round(scaled)):
            decoded = rd_decode(descriptor)
            kept = np.zeros(8, complex)
            kept[descriptor.support] = entries[descriptor.support]
            tail = np.linalg.norm(entries - kept)
            err = np.linalg.norm(decoded.values - f.values)
            assert err == pytest.approx(tail, abs=1e-9)
        assert k >= 1

    def test_determinism(self):
        system = make_wht(6)
        f = complex_gaussian(system.group, 9)
        a = rd_encode(system, f, 0.1)[0].serialize()
        b = rd_encode(system, f, 0.1)[0].serialize()
        assert a == b

    def test_integer_magnitude_invariant(self):
        system = make_dft(FiniteAbelianGroup((64,)))
        f = complex_gaussian(system.group, 12)
        descriptor, _ = rd_encode(system, f, 0.2)
        delta = descriptor.delta
        for q in np.concatenate([descriptor.q_re, descriptor.q_im]):
            assert abs(q * delta) <= descriptor.coeff_l2 + 2 * delta

    def test_zero_signal_rejected(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        from fratio.groups import Signal

        with pytest.raises(ValueError):
            rd_encode(system, Signal(system.group, np.zeros(8)), 0.2)
        with pytest.raises(ValueError):
            rd_encode(system, complex_gaussian(system.group, 0), 1.5)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_signals_whose_squares_underflow_or_overflow(self, scale):
        system = make_dft(FiniteAbelianGroup((64,)))
        f = complex_gaussian(system.group, 3)
        g = Signal(system.group, f.values * scale)
        descriptor, _ = rd_encode(system, g, 0.2)
        unit, _ = rd_encode(system, f, 0.2)
        assert descriptor.coeff_l2 == pytest.approx(scale * unit.coeff_l2, rel=1e-12, abs=0)
        back = rd_decode(descriptor.serialize())
        assert Signal(system.group, back.values - g.values).l2 <= 0.2 * g.l2

    def test_empty_support_stream_decodes_to_zero(self):
        descriptor = Descriptor(
            factors=(8,),
            label="dft",
            coeff_l2=1.0,
            eps=0.2,
            support=np.array([], dtype=np.int64),
            q_re=np.array([], dtype=np.int64),
            q_im=np.array([], dtype=np.int64),
        )
        decoded = rd_decode(descriptor.serialize())
        assert decoded.l2 == 0.0

    @pytest.mark.parametrize("where", ["magic", "factor", "floats", "support", "middle", "last byte"])
    def test_truncated_stream_rejected(self, where):
        system = make_dft(FiniteAbelianGroup((32,)))
        d = rd_encode(system, complex_gaussian(system.group, 1), 0.2)[0]
        blob = d.serialize()
        header = len(d._header())
        cut = {"magic": 2, "factor": 6, "floats": header - 1, "support": header + 1, "middle": len(blob) // 2}
        with pytest.raises(MalformedStreamError, match="truncated"):
            rd_decode(blob[: cut.get(where, len(blob) - 1)])

    def test_bad_magic_and_version(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        blob = bytearray(rd_encode(system, complex_gaussian(system.group, 2), 0.2)[0].serialize())
        bad_magic = bytes([blob[0] ^ 0xFF]) + bytes(blob[1:])
        with pytest.raises(MalformedStreamError):
            rd_decode(bad_magic)
        blob[4] = 99
        with pytest.raises(MalformedStreamError):
            rd_decode(bytes(blob))

    def test_bit_account_parts_sum(self):
        system = make_haar(64)
        f = complex_gaussian(system.group, 3)
        descriptor, account = rd_encode(system, f, 0.1)
        assert account.total == account.header_bits + account.support_bits + account.coefficient_bits
        assert account.support_bits == descriptor.k * 6


class TestBitBound:
    def test_floor_rule(self):
        r, eps, M = 1.5, 0.9, 1024
        assert r / eps <= math.e
        expected = (r / eps) ** 2 * math.log(M) + (r / eps) ** 2
        assert rd_bit_bound(r, eps, M) == pytest.approx(expected)

    def test_direct_arithmetic(self):
        got = rd_bit_bound(2.0, 0.5, 1024)
        base = 16.0
        L = math.log(4.0)
        expected = base * L**2 * math.log(1024) + base * L**3
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(255.75, abs=0.1)

    def test_gabor_variant(self):
        got = rd_bit_bound_gabor(2.0, 0.5, 32, 32)
        L = math.log(4.0)
        expected = 16 * L**2 * math.log(1024) + 16 * L**2 * math.log(2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            rd_bit_bound(0.5, 0.5, 64)
        with pytest.raises(ValueError):
            rd_bit_bound(2.0, 0.5, 1)


def test_bit_totals_linear_fit():
    rows = []
    cases = [
        (64, 1), (256, 1), (256, 4), (1024, 1), (1024, 4),
        (1024, 16), (4096, 1), (4096, 4), (4096, 16), (4096, 64),
    ]
    for M, s in cases:
        system = make_dft(FiniteAbelianGroup((M,)))
        f = sparse_signal(system, s, derive_seed(40, M, s))
        descriptor, account = rd_encode(system, f, 0.5)
        rows.append((descriptor.k, M, account.total))
    design = np.array([[k * math.log2(M), k, 1.0] for k, M, _ in rows])
    totals = np.array([t for *_, t in rows], dtype=float)
    coef, *_ = np.linalg.lstsq(design, totals, rcond=None)
    residual = np.abs(design @ coef - totals) / totals
    assert float(residual.max()) < 0.05


class TestTinyEps:
    def test_eps_1e_15_still_encodes_within_budget(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = complex_gaussian(system.group, 0)
        descriptor, account = rd_encode(system, f, 1e-15)
        decoded = rd_decode(descriptor.serialize())
        assert np.linalg.norm(decoded.values - f.values) <= 1e-15 * f.l2
        assert account.total == 8 * len(descriptor.serialize())

    @pytest.mark.parametrize("eps", [1e-17, 1e-19, 1e-100, 1e-160, 1e-300])
    def test_codes_past_2_53_are_refused(self, eps):
        # above 2^53 codes are not exact in float64; past 2^63 the int64 cast wraps
        system = make_dft(FiniteAbelianGroup((16,)))
        with pytest.raises(ValueError, match="2\\^53"):
            rd_encode(system, complex_gaussian(system.group, 0), eps)

    @pytest.mark.parametrize("eta", [1e-160, 1e-170, 5e-324])
    def test_sparsify_keeps_every_entry_where_fr2_over_eta2_is_infinite(self, eta):
        # FR^2 / eta^2 overflows at 1e-160; eta^2 is 0 at 1e-170
        c = complex_gaussian(FiniteAbelianGroup((16,)), 1).values
        assert soft_sparsify(c, eta).s == 16
