"""``RandomFunctional.coefficient_weights`` and ``sq_mse`` share one
accumulation; it keeps the bits of summing with ``np.add.at``."""
import numpy as np

from fratio import FiniteAbelianGroup, Signal, make_dft, make_wht
from fratio.sqdim import RandomFunctional, sq_sample


def _add_at_weights(P: RandomFunctional) -> np.ndarray:
    # the accumulation coefficient_weights used before it shared sq_mse's
    w = np.zeros(P.system.size, dtype=np.complex128)
    np.add.at(w, P.indices, P.phases)
    return P.amplitude * w


def test_coefficient_weights_equal_add_at_bitwise_on_repeated_indices():
    system = make_wht(4)
    rng = np.random.default_rng(7)
    f = Signal(system.group, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    P = sq_sample(system, f, k=200, seed=3)  # 200 draws on 16 points repeat
    assert np.unique(P.indices).size < P.k
    assert P.coefficient_weights().tobytes() == _add_at_weights(P).tobytes()


def test_coefficient_weights_keep_signed_zeros_and_repeats_bitwise():
    system = make_dft(FiniteAbelianGroup((8,)))
    phases = np.array([-0.0 - 0.0j, 1e-300 + 3j, -1e-300 - 3j, 0.5 - 0.0j, -0.0 + 1j, 0.1 + 0.2j, 0.3 - 0.7j])
    P = RandomFunctional(
        system=system,
        indices=np.array([2, 5, 5, 0, 2, 7, 7], dtype=np.int64),
        amplitude=0.3,
        phases=phases,
        seed=0,
    )
    assert P.coefficient_weights().tobytes() == _add_at_weights(P).tobytes()
