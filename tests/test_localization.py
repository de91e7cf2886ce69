import numpy as np
import pytest

from fratio import FiniteAbelianGroup, ProductDecomposition, Signal, localization_check
from fratio.localization import reassemble, slice_signal, slice_transforms
from fratio.ratio import fourier_ratio
from fratio.signals import row_delta_signal

from conftest import complex_gaussian


class TestDecomposition:
    def test_sizes(self):
        d = ProductDecomposition(FiniteAbelianGroup((4, 3, 2)), 1)
        assert d.h_size == 4
        assert d.k_size == 6

    def test_both_parts_nonempty(self):
        g = FiniteAbelianGroup((4, 3))
        with pytest.raises(ValueError):
            ProductDecomposition(g, 0)
        with pytest.raises(ValueError):
            ProductDecomposition(g, 2)


class TestSlicing:
    def test_row_delta_slices(self):
        g = FiniteAbelianGroup((6, 4))
        vec = np.arange(6) + 1.0
        f = row_delta_signal(g, vec, 2)
        d = ProductDecomposition(g, 1)
        slices = slice_signal(f, d)
        assert np.allclose(slices[2], vec)
        others = np.delete(slices, 2, axis=0)
        assert np.max(np.abs(others)) == 0.0

    def test_roundtrip(self):
        g = FiniteAbelianGroup((4, 3))
        f = complex_gaussian(g, 1)
        d = ProductDecomposition(g, 1)
        back = reassemble(slice_signal(f, d), d)
        assert np.array_equal(back.values, f.values)


class TestRowwiseIdentities:
    def test_parseval_across_slices(self):
        g = FiniteAbelianGroup((8, 6))
        d = ProductDecomposition(g, 1)
        f = complex_gaussian(g, 2)
        hats = slice_transforms(f, d)
        full = slice_transforms(f, d).T.reshape(-1)
        assert abs(np.linalg.norm(full) ** 2 - np.sum(np.abs(hats) ** 2)) < 1e-10 * f.l2**2

    def test_l1_additivity(self):
        g = FiniteAbelianGroup((8, 6))
        d = ProductDecomposition(g, 1)
        f = complex_gaussian(g, 3)
        hats = slice_transforms(f, d)
        full = slice_transforms(f, d).T.reshape(-1)
        assert np.sum(np.abs(full)) == pytest.approx(float(np.sum(np.abs(hats))), rel=1e-12)


class TestLocalizationCheck:
    def test_constant_signal(self):
        g = FiniteAbelianGroup((5, 4))
        f = Signal(g, np.ones(20))
        d = ProductDecomposition(g, 1)
        # full transform: one spike, ratio 1 everywhere
        rep = localization_check(f, d, transform="full")
        assert rep.global_fr == pytest.approx(1.0)
        assert rep.max_slice_fr == pytest.approx(1.0)
        assert rep.holds
        # row-wise transform: one spike per slice, so the global ratio is
        # sqrt(|K|) and the inequality is met with equality
        rep = localization_check(f, d, transform="rowwise")
        assert rep.global_fr == pytest.approx(2.0)
        assert rep.max_slice_fr == pytest.approx(rep.lower_bound)
        assert rep.holds

    def test_row_delta_equality_full_transform(self):
        g = FiniteAbelianGroup((8, 5))
        rng = np.random.default_rng(4)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = row_delta_signal(g, vec, 3)
        d = ProductDecomposition(g, 1)
        rep = localization_check(f, d, transform="full")
        fr_g = fourier_ratio(np.fft.fft(vec, norm="ortho"))
        assert rep.global_fr == pytest.approx(np.sqrt(5) * fr_g, rel=1e-12)
        assert rep.max_slice_fr == pytest.approx(fr_g, rel=1e-12)
        assert rep.max_slice_fr == pytest.approx(rep.lower_bound, rel=1e-9)
        assert rep.achieving_k == 3

    def test_random_sweep_rowwise(self):
        cases = [
            (FiniteAbelianGroup((8, 8)), 1),
            (FiniteAbelianGroup((16, 4)), 1),
            (FiniteAbelianGroup((2, 2, 3)), 1),
        ]
        for i, (g, h) in enumerate(cases):
            d = ProductDecomposition(g, h)
            for seed in range(500):
                f = complex_gaussian(g, 10_000 * i + seed)
                rep = localization_check(f, d, transform="rowwise")
                assert rep.holds

    def test_full_transform_counterexample(self):
        # rows that are distinct pure characters defeat the full-transform
        # reading: every slice ratio is 1 but the global ratio is |K|
        N, T = 8, 4
        g = FiniteAbelianGroup((N, T))
        values = np.empty((N, T), dtype=np.complex128)
        t = np.arange(N)
        for a in range(T):
            values[:, a] = np.exp(2j * np.pi * a * t / N) / np.sqrt(N)
        f = Signal(g, values.reshape(-1))
        d = ProductDecomposition(g, 1)
        rep_full = localization_check(f, d, transform="full")
        assert rep_full.global_fr == pytest.approx(T, rel=1e-9)
        assert rep_full.max_slice_fr == pytest.approx(1.0, rel=1e-9)
        assert not rep_full.holds
        rep_row = localization_check(f, d, transform="rowwise")
        assert rep_row.holds

    def test_zero_slices_skipped(self):
        g = FiniteAbelianGroup((4, 3))
        f = row_delta_signal(g, np.array([1.0, 0.0, 1.0, 0.0]), 0)
        d = ProductDecomposition(g, 1)
        rep = localization_check(f, d)
        assert rep.skipped_zero_slices == 2
        assert rep.achieving_k == 0

    def test_zero_signal_rejected(self):
        g = FiniteAbelianGroup((4, 3))
        with pytest.raises(ValueError):
            localization_check(Signal(g, np.zeros(12)), ProductDecomposition(g, 1))
