"""Acceptance gate: nine numbered criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every criterion is property-based or a calibrated Monte-Carlo fixture with
pinned seeds and stated tolerances.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from fratio import (
    FiniteAbelianGroup,
    ProductDecomposition,
    RecoveryConfig,
    SampleSet,
    bernoulli_sample,
    erasure_row_statistics,
    fourier_ratio,
    harmonic_model,
    localization_check,
    make_dft,
    make_gabor_block,
    make_haar,
    make_wht,
    rd_decode,
    rd_encode,
    recover_l1,
    soft_sparsify,
    sq_dim_log2,
    sq_mse,
    sq_sample,
)
from fratio.harness import PhaseSweepConfig, derive_seed, run_phase_sweep
from fratio.localization import slice_transforms
from fratio.ratio import fourier_ratio as fr
from fratio.recovery import restrict
from fratio.signals import rademacher_signal, random_signal, row_delta_signal, sparse_signal

from conftest import complex_gaussian
from test_recovery import brute_force_one_sparse


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_seconds else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_parseval_roundtrip():
    systems = [
        make_dft(FiniteAbelianGroup((4096,))),
        make_wht(12),
        make_gabor_block(64, 64),
        make_haar(4096),
    ]
    with criterion(1, "Parseval and roundtrip, 4 systems x 100 signals, 1e-10 relative", 10):
        for system in systems:
            for seed in range(100):
                f = complex_gaussian(system.group, derive_seed(1, seed))
                c = system.analyze(f)
                assert abs(c.l2 - f.l2) <= 1e-10 * f.l2
                back = system.synthesize(c)
                assert np.linalg.norm(back.values - f.values) <= 1e-10 * f.l2


def test_criterion_2_sparsification_tail_guarantee():
    with criterion(2, "l2 tail of top-s truncation <= eta * l2, zero failures", 5):
        rng = np.random.default_rng(2)
        checked = 0
        for trial in range(1000):
            n = int(rng.integers(1, 513))
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for eta in (0.1, 0.3, 0.5, 0.9):
                res = soft_sparsify(v, eta)
                assert res.s == min(n, math.ceil(fr(v) ** 2 / eta**2))
                assert res.tail_l2 <= eta * np.linalg.norm(v)
                checked += 1
        for alpha in (0.5, 1.0, 2.0):
            v = np.arange(1, 1025, dtype=float) ** -alpha
            for eta in (0.05, 0.2, 0.8):
                res = soft_sparsify(v, eta)
                assert res.tail_l2 <= eta * np.linalg.norm(v)
                checked += 1
        assert checked == 4009


def test_criterion_3_localization_obstruction():
    cases = [
        (FiniteAbelianGroup((8, 8)), 1),
        (FiniteAbelianGroup((16, 4)), 1),
        (FiniteAbelianGroup((2, 2, 3)), 1),
    ]
    with criterion(3, "slice ratio inequality on 500 signals x 3 decompositions + equality family", 10):
        for gi, (group, split) in enumerate(cases):
            d = ProductDecomposition(group, split)
            for seed in range(500):
                f = random_signal(group, derive_seed(3, gi, seed))
                rep = localization_check(f, d, rel_tol=1e-9)
                assert rep.holds
        # equality family: a signal supported on one slice
        group = FiniteAbelianGroup((8, 5))
        rng = np.random.default_rng(derive_seed(3, 99))
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = row_delta_signal(group, g, 2)
        rep = localization_check(f, ProductDecomposition(group, 1), transform="full")
        assert abs(rep.max_slice_fr - rep.lower_bound) <= 1e-9 * rep.lower_bound


def test_criterion_4_harmonic_example():
    with criterion(4, "harmonic model: FR >= (sqrt6/pi) log M and l2^2 <= pi^2/6", 1):
        for M in (8, 64, 512, 4096):
            c = harmonic_model(M)
            assert fourier_ratio(c) >= math.sqrt(6) / math.pi * math.log(M)
            assert float(np.sum(np.abs(c) ** 2)) <= math.pi**2 / 6


def test_criterion_5_recovery_fixtures():
    with criterion(5, "exact recovery fixtures and the phase sweep", 300):
        # (a) full observation, sigma = 0, all four systems
        for system in (
            make_dft(FiniteAbelianGroup((32,))),
            make_wht(5),
            make_gabor_block(8, 4),
            make_haar(32),
        ):
            f = complex_gaussian(system.group, derive_seed(5, 0))
            sample = bernoulli_sample(system.group, 1.0, 0)
            res = recover_l1(system, sample, restrict(f.values, sample), truth=f)
            assert res.relative_error < 1e-8
        # (b) 1-sparse on Z_32 from 16 samples vs the brute-force oracle
        system = make_dft(FiniteAbelianGroup((32,)))
        for seed in range(20):
            f = sparse_signal(system, 1, derive_seed(5, 1, seed))
            rng = np.random.default_rng(derive_seed(5, 2, seed))
            kept = np.sort(rng.choice(32, size=16, replace=False))
            sample = SampleSet(group=system.group, kept=kept, p=0.5, seed=seed)
            y = restrict(f.values, sample)
            res = recover_l1(system, sample, y, truth=f)
            oracle = brute_force_one_sparse(system, sample, y)
            assert res.relative_error < 1e-6
            assert np.linalg.norm(oracle.values - f.values) < 1e-6 * f.l2
        # (c) phase sweep on Z_64, 3-sparse
        report = run_phase_sweep(
            PhaseSweepConfig(
                system="dft:64",
                signal="sparse:3",
                p_values=(0.25, 0.5, 0.75, 1.0),
                trials=50,
                master_seed=5,
            )
        )
        rates = [a["success_rate"] for a in report.aggregates]
        at_075 = rates[report.config.p_values.index(0.75)]
        assert at_075 >= 0.95
        assert all(b >= a - 0.1 for a, b in zip(rates, rates[1:]))


def test_criterion_6_error_constant_target():
    with criterion(6, "noisy recovery: relative error <= 11.47 eps, 200 trials, zero violations", 300):
        system = make_dft(FiniteAbelianGroup((64,)))
        observed = []
        for gi, eps in enumerate((0.1, 0.2)):
            for trial in range(100):
                f = sparse_signal(system, 3, derive_seed(6, gi, trial, 0))
                sample = bernoulli_sample(system.group, 0.75, derive_seed(6, gi, trial, 1))
                sigma = eps * f.l2
                cfg = RecoveryConfig(fidelity_radius=sigma)
                res = recover_l1(system, sample, restrict(f.values, sample), cfg, truth=f)
                observed.append(res.relative_error / eps)
                assert res.relative_error <= 11.47 * eps
        print(f"       observed error/eps: max {max(observed):.3f}, mean {np.mean(observed):.3f}")


def test_criterion_7_rd_codec():
    with criterion(7, "codec distortion, exact bit totals, and the bit-count fit", 60):
        systems = [
            make_dft(FiniteAbelianGroup((64,))),
            make_wht(6),
            make_gabor_block(16, 4),
            make_haar(64),
        ]
        count = 0
        for si, system in enumerate(systems):
            for seed in range(25):
                f = complex_gaussian(system.group, derive_seed(7, si, seed))
                for eps in (0.05, 0.1, 0.2, 0.5):
                    descriptor, account = rd_encode(system, f, eps)
                    decoded = rd_decode(descriptor.serialize())
                    err = np.linalg.norm(decoded.values - f.values)
                    assert err <= eps * f.l2 * (1 + 1e-9)
                    assert account.total == len(descriptor.serialize()) * 8
            count += 1
        assert count == 4
        # bit totals follow A k log2 M + B k + H across M in {64..4096}
        rows = []
        cases = [
            (64, 1), (256, 1), (256, 4), (1024, 1), (1024, 4),
            (1024, 16), (4096, 1), (4096, 4), (4096, 16), (4096, 64),
        ]
        for M, s in cases:
            system = make_dft(FiniteAbelianGroup((M,)))
            f = sparse_signal(system, s, derive_seed(7, 9, M, s))
            descriptor, account = rd_encode(system, f, 0.5)
            rows.append((descriptor.k, M, account.total))
        design = np.array([[k * math.log2(M), k, 1.0] for k, M, _ in rows])
        totals = np.array([t for *_, t in rows], dtype=float)
        coef, *_ = np.linalg.lstsq(design, totals, rcond=None)
        residual = float(np.max(np.abs(design @ coef - totals) / totals))
        assert residual < 0.05


def test_criterion_8_sq_estimator():
    with criterion(8, "SQ estimator MSE bound, 1/k scaling, chi-square, dimension oracle", 120):
        wht = make_wht(4)
        dft = make_dft(FiniteAbelianGroup((16,)))
        for system, seed in ((wht, 81), (dft, 82)):
            f = rademacher_signal(system.group, seed)
            report = sq_mse(system, f, k=64, trials=10_000, seed=seed + 1)
            assert report.empirical_mse <= report.bound + 5 * report.std_error
        f = rademacher_signal(dft.group, 83)
        a = sq_mse(dft, f, k=32, trials=2000, seed=84)
        b = sq_mse(dft, f, k=64, trials=2000, seed=85)
        assert 0.4 <= b.empirical_mse / a.empirical_mse <= 0.6
        # sampler distribution
        f = complex_gaussian(dft.group, 86)
        g = dft.analyze(f).entries
        probs = np.abs(g) / np.sum(np.abs(g))
        P = sq_sample(dft, f, 100_000, seed=87)
        counts = np.bincount(P.indices, minlength=16)
        _, pvalue = chisquare(counts, probs * 100_000)
        assert pvalue > 0.001
        # dimension bound vs a high-precision big-number oracle at M <= 8
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for M, tau, r in ((2, 2**-0.5, 1.0), (4, 0.5, 1.0), (8, 8**-0.5, 1.0), (8, 0.5, 1.5)):
            E = 16**2 * M * tau**2 * r**2
            value = (
                mpmath.mpf(M) ** E
                * (mpmath.mpf(16**3) * mpmath.mpf(tau) ** 3 * M * mpmath.mpf(r) ** 2 + 1)
                * (16 * mpmath.mpf(tau) * r * mpmath.sqrt(M)) ** E
            )
            oracle = float(mpmath.log(value, 2))
            assert sq_dim_log2(M, tau, r) == pytest.approx(oracle, rel=1e-10)


def test_criterion_9_erasure_statistics():
    with criterion(9, "erasure: exact vs Monte-Carlo within 0.02 and monotone in N", 30):
        stats = erasure_row_statistics(100, 10, 0.05, 2, trials=10_000, seed=9)
        oracle = float(binom.cdf(24, 100, 0.05)) ** 10
        assert stats.exact_prob == pytest.approx(oracle, rel=1e-12)
        assert abs(stats.empirical_prob - stats.exact_prob) <= 0.02
        probs = [
            erasure_row_statistics(N, 10, 0.05, 2, trials=10, seed=9).exact_prob
            for N in (50, 100, 200, 400)
        ]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.999
