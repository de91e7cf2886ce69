"""Randomized coefficient-sampling estimator, covering quantizer, and the
log-scale dimension bound.

A signal f with coefficients g is estimated by drawing basis indices with
probability |g(m)| / ||g||_1 and averaging the rank-one synthesis terms; the
estimate is unbiased with mean-squared error at most M tau^2 r^2 / k.

``sq_sample`` and ``sq_mse`` draw through one recipe (``_WeightedDraws``).
``sq_mse`` runs its trials as (rows, M) stacks of about ``_STACK_ENTRIES``
entries: one draw, one accumulation (``_accumulate``, the same one
``RandomFunctional.coefficient_weights`` runs on one row) and one synthesis
per stack.  The random stream and every row's arithmetic are those of one trial
at a time, so reports do not depend on the stack size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groups import Signal
from .ratio import check_ratio_bound, fourier_ratio
from .systems import OrthonormalSystem

# Entries per sq_mse stack, counted over the wider of the (rows, k) draws and
# the (rows, M) synthesis: under 2 MB of temporaries per stack.  Larger stacks
# were no faster and raised the peak memory.
_STACK_ENTRIES = 1 << 14


def _accumulate(indices: np.ndarray, phases: np.ndarray, M: int) -> np.ndarray:
    """Per row of (rows, k) draws, the length-M sum of the phases at their indices.

    bincount adds each row's phases in draw order from +0.0, as np.add.at on
    zeros would, so the bits are the same.
    """
    rows = indices.shape[0]
    flat = (indices + M * np.arange(rows)[:, None]).reshape(-1)
    w = np.empty((rows, M), dtype=np.complex128)
    w.real = np.bincount(flat, weights=phases.real.reshape(-1), minlength=rows * M).reshape(rows, M)
    w.imag = np.bincount(flat, weights=phases.imag.reshape(-1), minlength=rows * M).reshape(rows, M)
    return w


@dataclass(frozen=True)
class RandomFunctional:
    """k-term random estimate P(x) = A * sum_i phi_{m_i}(x) u_i of a signal."""

    system: OrthonormalSystem
    indices: np.ndarray = field(repr=False)
    amplitude: float
    phases: np.ndarray = field(repr=False)
    seed: int

    @property
    def k(self) -> int:
        return int(self.indices.shape[0])

    def coefficient_weights(self) -> np.ndarray:
        """Aggregated coefficient vector A * sum_i u_i e_{m_i}."""
        w = _accumulate(np.asarray(self.indices)[None], np.asarray(self.phases)[None], self.system.size)
        return self.amplitude * w[0]

    def evaluate(self) -> np.ndarray:
        """Values of the functional on the whole domain."""
        return self.system._synthesize_array(self.coefficient_weights())


@dataclass(frozen=True)
class _WeightedDraws:
    """The |g|-weighted distribution over the coefficients g of a signal."""

    g: np.ndarray
    l1: float
    probs: np.ndarray
    unit: np.ndarray  # g / |g|, zero where g is

    @classmethod
    def of(cls, system: OrthonormalSystem, f: Signal) -> "_WeightedDraws":
        g = system.analyze(f).entries
        mags = np.abs(g)
        l1 = float(np.sum(mags))
        if l1 == 0.0:
            raise ValueError("cannot sample from the zero signal")
        nonzero = np.flatnonzero(mags)
        unit = np.zeros(g.shape[0], dtype=np.complex128)
        unit[nonzero] = g[nonzero] / mags[nonzero]
        return cls(g=g, l1=l1, probs=mags / l1, unit=unit)

    def draw(self, rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the given shape and their unit phases.

        ``Generator.choice`` fills its uniforms in C order, so one (rows, k)
        draw consumes the stream exactly as rows successive draws of k.
        """
        indices = rng.choice(self.probs.shape[0], size=shape, p=self.probs)
        return indices, self.unit[indices]


def sq_sample(system: OrthonormalSystem, f: Signal, k: int, seed: int) -> RandomFunctional:
    """Draw k indices from the |g|-weighted distribution of the coefficients g."""
    if k < 1:
        raise ValueError("k must be >= 1")
    weighted = _WeightedDraws.of(system, f)
    indices, phases = weighted.draw(np.random.default_rng(seed), k)
    return RandomFunctional(
        system=system,
        indices=indices.astype(np.int64),
        amplitude=weighted.l1 / k,
        phases=phases,
        seed=int(seed),
    )


def pointwise_variance(system: OrthonormalSystem, f: Signal) -> np.ndarray:
    """Exact Var[Z(x)] of a single draw: ||g||_1 sum_m |g(m)| |phi_m(x)|^2 - |f(x)|^2.

    Uses the dense basis matrix; intended for small domains.
    """
    g = system.analyze(f).entries
    l1 = float(np.sum(np.abs(g)))
    phi = system.basis_matrix()
    second_moment = l1 * (np.abs(phi) ** 2) @ np.abs(g)
    return second_moment - np.abs(f.values) ** 2


@dataclass(frozen=True)
class MseReport:
    empirical_mse: float
    bound: float
    k: int
    trials: int
    std_error: float = 0.0


def _stack_rows(M: int, k: int) -> int:
    """Trials per stack: about _STACK_ENTRIES draws and synthesized values."""
    return max(1, _STACK_ENTRIES // max(M, k))


def sq_mse(
    system: OrthonormalSystem,
    f: Signal,
    k: int,
    trials: int,
    seed: int,
    distribution: np.ndarray | None = None,
) -> MseReport:
    """Empirical weighted MSE of the k-term estimator against the M tau^2 r^2 / k bound.

    Trials run in stacks of rows; the report equals, bit for bit, that of
    one trial at a time.
    """
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be >= 1")
    M = system.size
    if distribution is None:
        distribution = np.full(M, 1.0 / M)
    distribution = np.asarray(distribution, dtype=np.float64)
    if (
        distribution.shape != (M,)
        or not np.all(np.isfinite(distribution))
        or np.any(distribution < 0)
        or abs(distribution.sum() - 1.0) > 1e-9
    ):
        raise ValueError("distribution must be a probability vector over the domain")
    weighted = _WeightedDraws.of(system, f)
    r = fourier_ratio(weighted.g)
    rng = np.random.default_rng(seed)
    amplitude = weighted.l1 / k
    rows = _stack_rows(M, k)
    per_trial = np.empty(trials)
    for start in range(0, trials, rows):
        n = min(rows, trials - start)
        idx, phases = weighted.draw(rng, (n, k))
        P = system._synthesize_array(amplitude * _accumulate(idx, phases, M))
        per_trial[start : start + n] = (distribution * np.abs(f.values - P) ** 2).sum(axis=-1)
    bound = M * system.tau**2 * r**2 / k
    std_error = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MseReport(
        empirical_mse=float(per_trial.mean()),
        bound=bound,
        k=k,
        trials=trials,
        std_error=std_error,
    )


@dataclass(frozen=True)
class CoveringParams:
    """Minimal grid sizes making each term of the covering budget < 1/16."""

    M: int
    tau: float
    r: float
    k: int
    N1: int
    N2: int
    eps: float = 1.0 / 16.0


def _check_covering_args(M: int, tau: float, r: float) -> None:
    """Validate the (domain size, incoherence, ratio bound) triple of the covering bounds."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not M**-0.5 * (1 - 1e-12) <= tau < math.inf:
        raise ValueError(f"tau cannot be below M^{{-1/2}} and must be finite, got {tau}")
    check_ratio_bound(r)


def covering_params(M: int, tau: float, r: float) -> CoveringParams:
    _check_covering_args(M, tau, r)
    try:
        k = math.ceil(16**2 * M * tau**2 * r**2)
        N2 = math.ceil(16 * tau * r * math.sqrt(M))
        N1 = math.ceil(16 * tau * k)
    except OverflowError:  # from a power, or from ceil of an infinite product
        raise ValueError(f"the covering quantities overflow at M={M}, tau={tau}, r={r}") from None
    return CoveringParams(M=M, tau=tau, r=r, k=k, N1=N1, N2=N2)


def quantize_functional(P: RandomFunctional, params: CoveringParams) -> RandomFunctional:
    """Snap the amplitude to the N1-step grid and each phase to an N2-th root of unity."""
    a_max = params.r * math.sqrt(params.M) / P.k
    if P.amplitude > a_max * (1 + 1e-12):
        raise ValueError("amplitude exceeds r sqrt(M) / k; the ratio bound r is too small")
    grid_step = a_max / params.N1
    amplitude = round(P.amplitude / grid_step) * grid_step
    angles = np.angle(P.phases)
    snapped = np.round(angles * params.N2 / (2.0 * math.pi))
    phases = np.exp(2j * math.pi * snapped / params.N2)
    return RandomFunctional(
        system=P.system,
        indices=P.indices.copy(),
        amplitude=float(amplitude),
        phases=phases,
        seed=P.seed,
    )


def quantizer_deviation_bound(params: CoveringParams, k: int) -> float:
    """Sup-norm budget tau k ((r sqrt(M)/k)/N2 + 1/N1 + 1/(N1 N2))."""
    a_max = params.r * math.sqrt(params.M) / k
    return params.tau * k * (a_max / params.N2 + 1.0 / params.N1 + 1.0 / (params.N1 * params.N2))


def sq_dim_log2(M: int, tau: float, r: float) -> float:
    """log2 of M^E (16^3 tau^3 M r^2 + 1) (16 tau r sqrt(M))^E with E = 16^2 M tau^2 r^2.

    Evaluated in log space; a ValueError where even that overflows.
    """
    _check_covering_args(M, tau, r)
    try:
        E = 16**2 * M * tau**2 * r**2
        middle = 16**3 * tau**3 * M * r**2 + 1.0
        value = E * math.log2(M) + math.log2(middle) + E * math.log2(16 * tau * r * math.sqrt(M))
    except OverflowError:  # from a power
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the covering quantities overflow at M={M}, tau={tau}, r={r}")
    return value
