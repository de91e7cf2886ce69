"""The covering step of the SQ-dimension bound, end to end.

The bound counts the quantized k-term functionals that cover every f with
FR(f) <= r.  Here Q is drawn from f itself (``sq_sample`` at the covering's
k), quantized onto the covering's grid, and must land within the covering
budget of f: the 1/16 of the sampling step plus the quantizer's deviation
bound.  f is scaled to ||f||_2^2 = M, the normalization under which the MSE
bound M tau^2 r^2 / k holds, so the sampling step's expected rms distance is
at most 1/16.  PAPER.md does not say which norm the covering uses; the rms
form is the one the MSE bound supports, so that is what is asserted.
"""
import math

import numpy as np
import pytest

from fratio import Signal, covering_params, fourier_ratio, parse_system, quantize_functional, quantizer_deviation_bound, sq_sample
from fratio.signals import generate_signal

CASES = [
    ("dft:16", "random"),
    ("dft:16", "sparse:2"),
    ("haar:16", "random"),
    ("wht:4", "random"),
    ("dft:64", "random"),
    ("dft:64", "sparse:2"),
    ("gabor:N=4,T=4", "random"),
    ("haar:64", "sparse:1"),
]


@pytest.mark.parametrize("spec,signal", CASES)
def test_quantized_functional_lands_within_the_covering_budget(spec, signal):
    system = parse_system(spec)
    M = system.size
    for seed in range(50):
        f = generate_signal(system, signal, seed=seed)
        f = Signal(f.group, f.values * (math.sqrt(M) / f.l2))
        r = fourier_ratio(system.analyze(f)) * (1 + 1e-12)
        params = covering_params(M, system.tau, r)
        Q = quantize_functional(sq_sample(system, f, params.k, seed), params)
        rms = math.sqrt(np.mean(np.abs(Q.evaluate() - f.values) ** 2))
        assert rms <= 1 / 16 + quantizer_deviation_bound(params, params.k), (seed, rms)
