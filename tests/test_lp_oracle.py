"""An independent oracle for the l1 optimum that recovery reaches.

On a real basis (wht, haar) with real samples, min ||c||_1 subject to
B c = y is a linear program: c = u - v with u, v >= 0 and A (u - v) = y.  A
complex c does no better, since its imaginary part lies in the null space and
only adds to each |c_j|.  So a converged Douglas-Rachford solve must reach the
value that HiGHS finds for the LP.
"""
import numpy as np
import pytest
from scipy.optimize import linprog

from fratio import Signal, bernoulli_sample, parse_system, recover_l1
from fratio.recovery import restrict

SYSTEMS = ["wht:6", "wht:8", "haar:64", "haar:256"]
SEEDS = [11, 12, 13, 14]


def _three_term_signal(system, seed: int) -> Signal:
    rng = np.random.default_rng(seed)
    c = np.zeros(system.size, dtype=np.complex128)
    c[rng.choice(system.size, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
    return system.synthesize(c)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", [0.25, 0.5])
@pytest.mark.parametrize("spec", SYSTEMS)
def test_converged_solve_reaches_the_lp_optimum(spec, p, seed):
    system = parse_system(spec)
    f = _three_term_signal(system, seed)
    sample = bernoulli_sample(system.group, p, seed + 100)
    y = restrict(f.values, sample)
    A = system.basis_matrix().real[sample.kept]
    lp = linprog(np.ones(2 * system.size), A_eq=np.hstack([A, -A]), b_eq=y.real, bounds=(0, None), method="highs")
    assert lp.success, lp.message
    result = recover_l1(system, sample, y)
    assert result.converged
    assert abs(result.coefficient_l1 - lp.fun) <= 1e-7 * lp.fun
