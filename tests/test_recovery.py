import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import binom

from fratio import (
    FiniteAbelianGroup,
    RecoveryConfig,
    SampleSet,
    bernoulli_sample,
    erasure_row_statistics,
    make_dft,
    parse_system,
    project_fidelity,
    recover_l1,
    recover_l1_batch,
    sample_complexity,
    soft_threshold,
)
from fratio import recovery
from fratio.harness import PhaseSweepConfig, derive_seed, run_phase_sweep, success_threshold
from fratio.recovery import extend_by_zero, restrict
from fratio.signals import sparse_signal

from conftest import complex_gaussian


class TestBernoulliSample:
    def test_full_domain(self):
        g = FiniteAbelianGroup((10,))
        sample = bernoulli_sample(g, 1.0, 0)
        assert list(sample.kept) == list(range(10))

    def test_determinism(self):
        g = FiniteAbelianGroup((100,))
        a = bernoulli_sample(g, 0.3, 42)
        b = bernoulli_sample(g, 0.3, 42)
        assert np.array_equal(a.kept, b.kept)

    def test_binomial_statistics(self):
        g = FiniteAbelianGroup((10_000,))
        counts = [bernoulli_sample(g, 0.5, seed).count for seed in range(100)]
        assert abs(np.mean(counts) - 5000) <= 3 * 50 / math.sqrt(100) * math.sqrt(100)
        # per-seed counts stay within a generous 5 sigma window
        assert all(abs(c - 5000) < 5 * 50 for c in counts)

    def test_p_domain(self):
        g = FiniteAbelianGroup((4,))
        with pytest.raises(ValueError):
            bernoulli_sample(g, 0.0, 0)
        with pytest.raises(ValueError):
            bernoulli_sample(g, 1.5, 0)

    @pytest.mark.parametrize("kept", [[0, 2, 2], [-1, 1], [0, 4]], ids=["duplicate", "negative", "out-of-range"])
    def test_rejects_indices_that_break_the_partial_isometry(self, kept):
        with pytest.raises(ValueError):
            SampleSet(group=FiniteAbelianGroup((4,)), kept=np.array(kept), p=0.5, seed=0)


class TestSoftThreshold:
    def test_identity_at_zero(self):
        v = np.array([1 + 2j, -3.0, 0.0])
        assert np.allclose(soft_threshold(v, 0.0), v)

    def test_real_shrinkage(self):
        assert soft_threshold(np.array([3.0 + 0j]), 1.0)[0] == pytest.approx(2.0)

    def test_complex_modulus(self):
        out = soft_threshold(np.array([4 + 3j, 8 + 6j]), 5.0)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(4 + 3j)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -1.0)


class TestProjectFidelity:
    def test_feasible_point_unchanged(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        f = complex_gaussian(system.group, 0)
        sample = bernoulli_sample(system.group, 0.5, 1)
        y = restrict(f.values, sample)
        c = system.analyze(f).entries
        out = project_fidelity(system, c, sample, y, sigma=1.0)
        assert np.allclose(out, c)

    def test_exact_interpolation_full_domain(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        f = complex_gaussian(system.group, 2)
        sample = bernoulli_sample(system.group, 1.0, 0)
        y = restrict(f.values, sample)
        out = project_fidelity(system, np.zeros(8, complex), sample, y, sigma=0.0)
        assert np.allclose(out, system.analyze(f).entries, atol=1e-12)

    def test_matches_convex_oracle(self):
        system = make_dft(FiniteAbelianGroup((12,)))
        f = complex_gaussian(system.group, 3)
        sample = bernoulli_sample(system.group, 0.6, 4)
        y = restrict(f.values, sample)
        sigma = 0.4
        rng = np.random.default_rng(5)
        c0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = project_fidelity(system, c0, sample, y, sigma)

        phi = system.basis_matrix()
        B = phi[sample.kept, :]  # synthesis then restriction
        assert np.max(np.abs(got - kkt_projection(B, c0, y, sigma))) < 1e-9 * np.linalg.norm(c0)
        try:
            import cvxpy
        except ImportError:
            return  # the KKT oracle above is the check where cvxpy is not installed
        c = cvxpy.Variable(12, complex=True)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum_squares(c - c0)), [cvxpy.norm(B @ c - y, 2) <= sigma]
        )
        prob.solve()
        # agreement limited by the iterative conic solver's own accuracy
        assert np.max(np.abs(got - c.value)) < 1e-5

    def test_idempotence(self):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = complex_gaussian(system.group, 6)
        sample = bernoulli_sample(system.group, 0.5, 7)
        y = restrict(f.values, sample)
        rng = np.random.default_rng(8)
        c0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        once = project_fidelity(system, c0, sample, y, 0.3)
        twice = project_fidelity(system, once, sample, y, 0.3)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_partial_isometry(self, small_system):
        sample = bernoulli_sample(small_system.group, 0.5, 9)
        if sample.count == 0:
            pytest.skip("empty draw")
        rng = np.random.default_rng(10)
        v = rng.standard_normal(sample.count) + 1j * rng.standard_normal(sample.count)
        c = small_system._analyze_array(extend_by_zero(v, sample))
        back = restrict(small_system._synthesize_array(c), sample)
        assert np.max(np.abs(back - v)) < 1e-10


def kkt_projection(A, c0, y, sigma):
    """Reference projection of c0 onto {c : ||A c - y||_2 <= sigma} for any matrix A.

    Stationarity gives c(lam) = (I + lam A^H A)^{-1} (c0 + lam A^H y) with a
    multiplier lam >= 0, and ||A c(lam) - y|| falls as lam grows, so bisection
    finds the lam at which it meets sigma.  For sigma = 0 the answer is the
    minimum-norm correction onto the affine set A c = y.  Nothing here assumes
    that A has orthonormal rows.
    """

    def residual(c):
        return np.linalg.norm(A @ c - y)

    if residual(c0) <= sigma:
        return c0.copy()
    if sigma == 0:
        return c0 - np.linalg.lstsq(A, A @ c0 - y, rcond=None)[0]
    gram, rhs, eye = A.conj().T @ A, A.conj().T @ y, np.eye(A.shape[1])

    def solve(lam):
        return scipy.linalg.solve(eye + lam * gram, c0 + lam * rhs, assume_a="pos")

    lo, hi = 0.0, 1.0
    while residual(solve(hi)) > sigma:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if residual(solve(mid)) > sigma else (lo, mid)
    return solve(hi)


@pytest.mark.parametrize("spec", ["dft:4x4", "wht:4", "gabor:N=8,T=2", "haar:16"])
def test_batched_projection_matches_kkt_oracle(spec):
    system = parse_system(spec)
    phi = system.basis_matrix()
    rng = np.random.default_rng(derive_seed(12, system.size))
    rows = []
    for i in range(6):
        sample = bernoulli_sample(system.group, 0.5, derive_seed(13, i))
        y = restrict(complex_gaussian(system.group, derive_seed(14, i)).values, sample)
        c0 = rng.standard_normal(system.size) + 1j * rng.standard_normal(system.size)
        gap = np.linalg.norm(phi[sample.kept] @ c0 - y)
        # sigma = 0, two clipping radii, and three radii the start already meets
        sigma = (0.0, 0.3 * gap, 0.9 * gap, gap, 1.5 * gap, 3.0 * gap)[i]
        rows.append((sample, y, c0, sigma))
    masks = np.stack([extend_by_zero(np.ones(s.count), s) for s, *_ in rows])
    y_ext = np.stack([extend_by_zero(y, s) for s, y, *_ in rows])
    c0s = np.stack([c0 for *_, c0, _ in rows])
    sigmas = np.array([sigma for *_, sigma in rows])
    got = project_fidelity(system, c0s, masks, y_ext, sigmas)
    for (sample, y, c0, sigma), row in zip(rows, got):
        expected = kkt_projection(phi[sample.kept], c0, y, sigma)
        assert np.max(np.abs(row - expected)) < 1e-9 * np.linalg.norm(c0)
        assert np.linalg.norm(phi[sample.kept] @ row - y) <= sigma + 1e-9


def brute_force_one_sparse(system, sample, y):
    """Fit every 1-sparse coefficient candidate to the samples; best residual wins."""
    phi = system.basis_matrix()
    best = None
    for j in range(system.size):
        col = phi[sample.kept, j]
        denom = np.vdot(col, col).real
        alpha = np.vdot(col, y) / denom
        resid = np.linalg.norm(alpha * col - y)
        if best is None or resid < best[0]:
            best = (resid, j, alpha)
    _, j, alpha = best
    c = np.zeros(system.size, complex)
    c[j] = alpha
    return system.synthesize(c)


class TestRecoverL1:
    def test_full_observation_exact(self, small_system):
        f = complex_gaussian(small_system.group, 11)
        sample = bernoulli_sample(small_system.group, 1.0, 0)
        res = recover_l1(small_system, sample, restrict(f.values, sample), truth=f)
        assert res.converged
        assert res.relative_error < 1e-8

    def test_one_sparse_vs_brute_force(self):
        system = make_dft(FiniteAbelianGroup((32,)))
        for seed in range(20):
            f = sparse_signal(system, 1, derive_seed(100, seed))
            rng = np.random.default_rng(derive_seed(101, seed))
            kept = np.sort(rng.choice(32, size=16, replace=False))
            sample = SampleSet(group=system.group, kept=kept, p=0.5, seed=seed)
            y = restrict(f.values, sample)
            res = recover_l1(system, sample, y, truth=f)
            oracle = brute_force_one_sparse(system, sample, y)
            assert res.relative_error < 1e-6
            assert np.linalg.norm(oracle.values - f.values) < 1e-8 * f.l2

    def test_three_sparse_monte_carlo_fixture(self):
        system = make_dft(FiniteAbelianGroup((64,)))
        successes = 0
        for seed in range(20):
            f = sparse_signal(system, 3, derive_seed(102, seed))
            sample = bernoulli_sample(system.group, 0.75, derive_seed(103, seed))
            res = recover_l1(system, sample, restrict(f.values, sample), truth=f)
            successes += res.relative_error < 1e-5
        assert successes >= 19

    def test_feasibility_and_weak_optimality(self):
        system = make_dft(FiniteAbelianGroup((48,)))
        config = RecoveryConfig(max_iterations=20000, tolerance=1e-11)
        for seed, eps in [(0, 0.0), (1, 0.1), (2, 0.2)]:
            f = sparse_signal(system, 4, derive_seed(104, seed))
            sample = bernoulli_sample(system.group, 0.8, derive_seed(105, seed))
            sigma = eps * f.l2
            cfg = RecoveryConfig(
                max_iterations=config.max_iterations,
                tolerance=config.tolerance,
                fidelity_radius=sigma,
            )
            res = recover_l1(system, sample, restrict(f.values, sample), cfg, truth=f)
            assert res.converged
            assert res.fidelity_residual <= sigma + 10 * cfg.tolerance
            truth_l1 = system.analyze(f).l1
            assert res.coefficient_l1 <= truth_l1 + 10 * cfg.tolerance

    def test_non_convergence_flag(self):
        system = make_dft(FiniteAbelianGroup((32,)))
        f = sparse_signal(system, 3, 0)
        sample = bernoulli_sample(system.group, 0.7, 1)
        cfg = RecoveryConfig(max_iterations=2, fidelity_radius=0.0)
        res = recover_l1(system, sample, restrict(f.values, sample), cfg, truth=f)
        assert not res.converged
        assert res.iterations == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        system = make_dft(FiniteAbelianGroup((16,)))
        f = sparse_signal(system, 1, 0)
        sample = bernoulli_sample(system.group, 0.75, 1)
        y = restrict(f.values, sample).copy()
        y[0] = bad
        with pytest.raises(ValueError):
            recover_l1(system, sample, y)
        with pytest.raises(ValueError):
            recover_l1_batch(system, [sample, sample], [restrict(f.values, sample), y])

    def test_success_monotone_in_p(self):
        system = make_dft(FiniteAbelianGroup((32,)))
        rates = []
        for gi, p in enumerate((0.3, 0.6, 0.9)):
            ok = 0
            for trial in range(50):
                f = sparse_signal(system, 2, derive_seed(106, gi, trial))
                sample = bernoulli_sample(system.group, p, derive_seed(107, gi, trial))
                res = recover_l1(system, sample, restrict(f.values, sample), truth=f)
                ok += res.relative_error < 1e-5
            rates.append(ok / 50)
        assert all(b >= a - 0.1 for a, b in zip(rates, rates[1:]))


PINNED = json.loads((Path(__file__).parent / "data" / "pinned_recovery.json").read_text())


def assert_matches_pinned(got, pinned):
    """got: (iterations, converged, success, relative_error) per trial, in pinned order."""
    assert len(got) == len(pinned)
    for row, expected in zip(got, pinned):
        assert tuple(row[:3]) == tuple(expected[2:5])
        assert row[3] == pytest.approx(expected[5], rel=1e-12, abs=0)


class TestRecoverL1Batch:
    """The batched solver against per-trial results of the serial solver it
    replaced, pinned in tests/data/pinned_recovery.json."""

    def test_phase_sweep_matches_pinned_serial_results(self):
        report = run_phase_sweep(
            PhaseSweepConfig(system="dft:64", signal="sparse:3", p_values=(0.25, 0.5, 0.75, 1.0),
                             trials=50, master_seed=5)
        )
        got = [(r.iterations, r.converged, r.success, r.relative_error) for r in report.records]
        assert_matches_pinned(got, PINNED["criterion_5c_sweep"])

    def test_noisy_fixtures_match_pinned_serial_results_in_one_batch(self):
        system = make_dft(FiniteAbelianGroup((64,)))
        signals, samples, configs, epss = [], [], [], []
        for gi, eps in enumerate((0.1, 0.2)):
            for trial in range(10):
                f = sparse_signal(system, 3, derive_seed(6, gi, trial, 0))
                signals.append(f)
                samples.append(bernoulli_sample(system.group, 0.75, derive_seed(6, gi, trial, 1)))
                configs.append(RecoveryConfig(fidelity_radius=eps * f.l2))
                epss.append(eps)
        ys = [restrict(f.values, s) for f, s in zip(signals, samples)]
        results = recover_l1_batch(system, samples, ys, configs, signals)
        got = [
            (r.iterations, r.converged, r.relative_error <= success_threshold(eps), r.relative_error)
            for r, eps in zip(results, epss)
        ]
        assert_matches_pinned(got, PINNED["criterion_6_noisy"])

    @pytest.mark.parametrize("spec", ["dft:4x8", "wht:5", "gabor:N=8,T=4", "haar:32"])
    def test_rows_do_not_depend_on_the_batch(self, spec):
        system = parse_system(spec)
        problems = []
        for i in range(6):
            f = sparse_signal(system, 2, derive_seed(15, i))
            sample = bernoulli_sample(system.group, 0.6, derive_seed(16, i))
            eps = (0.0, 0.05, 0.2)[i % 3]
            problems.append((sample, restrict(f.values, sample), RecoveryConfig(fidelity_radius=eps * f.l2), f))

        def solve(order):
            samples, ys, configs, truths = (list(col) for col in zip(*(problems[i] for i in order)))
            return dict(zip(order, recover_l1_batch(system, samples, ys, configs, truths)))

        alone = {i: solve([i])[i] for i in range(6)}
        full, shuffled = solve(list(range(6))), solve([3, 0, 5, 1, 4, 2])
        assert len({r.iterations for r in alone.values()}) > 1  # rows leave the stack at different times
        for i, ref in alone.items():
            for other in (full[i], shuffled[i]):
                assert (other.iterations, other.converged) == (ref.iterations, ref.converged)
                assert np.array_equal(other.recovered.values, ref.recovered.values)
                assert other.relative_error == ref.relative_error
                assert other.fidelity_residual == ref.fidelity_residual

    def test_large_batches_are_solved_in_stacks(self, monkeypatch):
        system = make_dft(FiniteAbelianGroup((32,)))
        signals = [sparse_signal(system, 2, derive_seed(17, i)) for i in range(5)]
        samples = [bernoulli_sample(system.group, 0.6, derive_seed(18, i)) for i in range(5)]
        ys = [restrict(f.values, s) for f, s in zip(signals, samples)]
        whole = recover_l1_batch(system, samples, ys, truths=signals)
        monkeypatch.setattr(recovery, "_STACK_ENTRIES", 2 * system.size)
        stacked = recover_l1_batch(system, samples, ys, truths=signals)
        assert [r.iterations for r in stacked] == [r.iterations for r in whole]
        for a, b in zip(stacked, whole):
            assert np.array_equal(a.recovered.values, b.recovered.values)
            assert a.relative_error == b.relative_error

    def test_rejects_mismatched_inputs(self):
        system = make_dft(FiniteAbelianGroup((8,)))
        sample = bernoulli_sample(system.group, 1.0, 0)
        y = np.ones(8)
        with pytest.raises(ValueError):
            recover_l1_batch(system, [sample, sample], [y])
        with pytest.raises(ValueError):
            recover_l1_batch(system, [sample], [y[:4]])
        with pytest.raises(ValueError):
            recover_l1_batch(system, [sample], [y], [RecoveryConfig(), RecoveryConfig()])
        with pytest.raises(ValueError):
            recover_l1_batch(system, [sample, sample], [y, y], [RecoveryConfig(), RecoveryConfig(step=0.5)])
        assert recover_l1_batch(system, [], []) == []


class TestSampleComplexity:
    def test_constant_modulus_reduction(self):
        M = 1024
        got = sample_complexity(4.0, 0.25, M, tau=M**-0.5, C=1.0)
        expected = (4 / 0.25) ** 2 * math.log(16) ** 2 * math.log(M)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(13642, rel=1e-3)

    def test_log_floor(self):
        val = sample_complexity(1.0, 0.5, 64, tau=0.125)
        assert val == pytest.approx(4.0 * math.log(64))

    def test_tau_scaling(self):
        base = sample_complexity(2.0, 0.5, 64, tau=64**-0.5)
        scaled = sample_complexity(2.0, 0.5, 64, tau=2 * 64**-0.5)
        assert scaled == pytest.approx(4 * base)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            sample_complexity(0.5, 0.5, 64, tau=0.125)
        with pytest.raises(ValueError):
            sample_complexity(2.0, 1.5, 64, tau=0.125)


class TestErasureStatistics:
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_row_blocks_draw_the_stream_of_one_draw(self, monkeypatch, rows):
        N, T, theta, trials, seed = 40, 5, 0.2, 103, 4  # no block size here divides 103 trials
        monkeypatch.setattr(recovery, "_ERASURE_BLOCK_ENTRIES", rows * T)
        stats = erasure_row_statistics(N, T, theta, 2, trials=trials, seed=seed)
        losses = np.random.default_rng(seed).binomial(N, theta, size=(trials, T))
        assert 0 < stats.empirical_prob < 1
        assert stats.empirical_prob == float(np.mean(losses.max(axis=1) < stats.threshold))

    def test_small_theta_near_one(self):
        stats = erasure_row_statistics(100, 5, 1e-6, 2, trials=100, seed=0)
        assert stats.exact_prob > 0.999

    def test_binomial_cdf_oracle(self):
        stats = erasure_row_statistics(100, 10, 0.05, 2, trials=10_000, seed=1)
        oracle = float(binom.cdf(24, 100, 0.05)) ** 10
        assert stats.exact_prob == pytest.approx(oracle, rel=1e-12)
        assert abs(stats.empirical_prob - stats.exact_prob) <= 0.02

    def test_monotone_in_n(self):
        probs = [
            erasure_row_statistics(N, 10, 0.05, 2, trials=10, seed=0).exact_prob
            for N in (50, 100, 200, 400)
        ]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_theta_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            erasure_row_statistics(100, 10, 0.3, 2, trials=10, seed=0)
