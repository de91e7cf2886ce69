"""The Anderson-accelerated Douglas-Rachford path on domains of 1024+ points.

Inputs follow the benchmark's recovery recipe: op ``i`` of seed 1 draws its
signal from ``derive_seed(1, i, 0)`` and its Bernoulli sample from
``derive_seed(1, i, 1)``.  The plain solver, selected by raising the size
threshold above the domain, is the oracle.
"""
import numpy as np
import pytest

from fratio import parse_system, recovery
from fratio.harness import derive_seed, success_threshold
from fratio.recovery import RecoveryConfig, bernoulli_sample, recover_l1, recover_l1_batch, restrict
from fratio.signals import generate_signal


def _op(system, signal, i, p, eps):
    f = generate_signal(system, signal, seed=derive_seed(1, i, 0))
    sample = bernoulli_sample(system.group, p, derive_seed(1, i, 1))
    return sample, restrict(f.values, sample), RecoveryConfig(fidelity_radius=eps * f.l2), f


@pytest.fixture
def plain(monkeypatch):
    """Run the body's solves on the plain Douglas-Rachford path."""

    def solve(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(recovery, "_ANDERSON_MIN_SIZE", np.inf)
            return fn(*args)

    return solve


def test_stalled_haar_solve_converges():
    # op 735 of the benchmark's recover-4k schedule at seed 1: plain DR stalls
    # near ||T(z) - z|| = 6e-8 and is still unconverged after 20,000 iterations.
    # Its last iterate at the default 5000 has this l1 norm (2.3 s to recompute).
    plain_l1 = float.fromhex("0x1.287918a09f5a7p+3")
    system = parse_system("haar:4096")
    sample, y, config, f = _op(system, "sparse:10", 735, 0.5, 0.05)
    result = recover_l1(system, sample, y, config, truth=f)
    assert result.converged
    assert result.coefficient_l1 <= plain_l1 * (1 + 1e-9)
    assert result.fidelity_residual <= config.fidelity_radius + config.tolerance * max(1.0, np.linalg.norm(y))


def test_reverted_steps_keep_a_diverging_solve_on_track(plain):
    # op 983 (haar, eps 0): resetting the memory but keeping the bad step
    # diverges to a relative error of 5e7; going back to the plain image of the
    # accepted point converges.
    system = parse_system("haar:4096")
    sample, y, config, f = _op(system, "sparse:10", 983, 0.5, 0.0)
    reference = plain(recover_l1, system, sample, y, config, f)
    result = recover_l1(system, sample, y, config, truth=f)
    assert reference.converged and reference.iterations == 138
    assert result.converged and result.iterations <= reference.iterations
    assert result.relative_error == pytest.approx(reference.relative_error, rel=1e-9)


SPECS = ["dft:1024", "wht:10", "gabor:N=32,T=32", "haar:1024"]
ROWS = 8


def _problems(system):
    """ROWS problems, every other one with a noise radius of 5 % of ||f||_2."""
    return [_op(system, "sparse:6", i, 0.5, 0.05 * (i % 2)) for i in range(ROWS)]


def _solve(system, problems, order):
    samples, ys, configs, truths = (list(col) for col in zip(*(problems[i] for i in order)))
    return dict(zip(order, recover_l1_batch(system, samples, ys, configs, truths)))


def _same(a, b) -> bool:
    return (
        (a.iterations, a.converged, a.relative_error, a.fidelity_residual, a.coefficient_l1)
        == (b.iterations, b.converged, b.relative_error, b.fidelity_residual, b.coefficient_l1)
        and np.array_equal(a.recovered.values, b.recovered.values)
    )


@pytest.mark.parametrize("spec", SPECS)
def test_accelerated_rows_keep_the_plain_outcome(plain, spec):
    system = parse_system(spec)
    problems = _problems(system)
    order = list(range(ROWS))
    reference = plain(_solve, system, problems, order)
    got = _solve(system, problems, order)
    for i, (sample, y, config, f) in enumerate(problems):
        threshold = success_threshold(0.05 * (i % 2))
        if reference[i].relative_error <= threshold:
            assert got[i].relative_error <= threshold
        assert got[i].converged
        assert got[i].fidelity_residual <= config.fidelity_radius + config.tolerance * max(1.0, np.linalg.norm(y))


@pytest.mark.parametrize("spec", SPECS)
def test_accelerated_rows_do_not_depend_on_the_batch(monkeypatch, spec):
    system = parse_system(spec)
    problems = _problems(system)
    alone = {i: _solve(system, problems, [i])[i] for i in range(ROWS)}
    batches = [_solve(system, problems, list(range(ROWS))), _solve(system, problems, [5, 2, 7, 0, 3, 6, 1, 4])]
    for entries in (system.size, 8 * system.size):  # stacks of one and of two rows
        monkeypatch.setattr(recovery, "_STACK_ENTRIES", entries)
        batches.append(_solve(system, problems, list(range(ROWS))))
    assert len({r.iterations for r in alone.values()}) > 1  # rows leave the stack at different times
    for i, ref in alone.items():
        for batch in batches:
            assert _same(batch[i], ref)


@pytest.mark.parametrize("seed, i", [(509, 707), (3, 1787)])
def test_a_row_stops_only_at_a_point_it_accepts(seed, i):
    # recover-4k ops where a rejected extrapolation met the stop rule: its bound
    # tol * max(1, ||T(z)||) had grown with the blown-up point, and the row
    # returned ||c||_1 of about 1e11 against the truth's 10
    system = parse_system("haar:4096")
    f = generate_signal(system, "sparse:10", seed=derive_seed(seed, i, 0))
    sample = bernoulli_sample(system.group, 0.5, derive_seed(seed, i, 1))
    y = restrict(f.values, sample)
    config = RecoveryConfig()
    result = recover_l1(system, sample, y, config, truth=f)
    assert result.converged
    assert result.fidelity_residual <= config.fidelity_radius + config.tolerance * max(1.0, np.linalg.norm(y))
    # eps = 0 and the truth is feasible, so the l1 minimum is at most its norm
    assert result.coefficient_l1 <= system.analyze(f).l1
