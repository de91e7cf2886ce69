"""Bernoulli sampling and l1-minimization recovery via Douglas-Rachford splitting.

The program solved is

    min ||c||_1   subject to   || restrict_X(synthesize(c)) - y ||_2 <= sigma.

Sampling-after-synthesis is a partial isometry, so the projection onto the
fidelity ball has a closed form and the splitting needs no inner solves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.stats import binom

from .groups import FiniteAbelianGroup, Signal
from .ratio import check_bound_args
from .systems import OrthonormalSystem


@dataclass(frozen=True)
class SampleSet:
    """Subset of the domain kept by seeded Bernoulli(p) sampling.

    The kept indices must be distinct points of the group: restriction after
    synthesis is then a partial isometry, which the closed-form fidelity
    projection relies on.
    """

    group: FiniteAbelianGroup
    kept: np.ndarray = field(repr=False)
    p: float
    seed: int

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=np.int64).reshape(-1).copy()
        if kept.size and (kept.min() < 0 or kept.max() >= self.group.size):
            raise ValueError(f"kept indices must lie in 0..{self.group.size - 1}")
        if np.unique(kept).size != kept.size:
            raise ValueError("kept indices must be distinct")
        kept.setflags(write=False)
        object.__setattr__(self, "kept", kept)

    @property
    def count(self) -> int:
        return int(self.kept.shape[0])


def bernoulli_sample(group: FiniteAbelianGroup, p: float, seed: int) -> SampleSet:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"keep probability must lie in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    mask = rng.random(group.size) < p
    return SampleSet(group=group, kept=np.flatnonzero(mask), p=float(p), seed=int(seed))


def restrict(signal_values: np.ndarray, sample: SampleSet) -> np.ndarray:
    return signal_values[sample.kept]


def extend_by_zero(sampled: np.ndarray, sample: SampleSet) -> np.ndarray:
    full = np.zeros(sample.group.size, dtype=np.complex128)
    full[sample.kept] = sampled
    return full


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex rows along the last axis."""
    v = np.ascontiguousarray(a).view(np.float64)
    # row-wise dot products of the interleaved real/imaginary parts
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def soft_threshold(c: np.ndarray, lam: float) -> np.ndarray:
    """Complex soft thresholding z -> z * max(0, 1 - lam/|z|), with 0 -> 0."""
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(c, dtype=np.complex128)
    mags = np.abs(v)
    scale = np.zeros_like(mags)
    np.divide(np.maximum(mags - lam, 0.0), mags, out=scale, where=mags > 0)
    return v * scale


def project_fidelity(
    system: OrthonormalSystem,
    c: np.ndarray,
    sample: Union[SampleSet, np.ndarray],
    y: np.ndarray,
    sigma: Union[float, np.ndarray],
) -> np.ndarray:
    """Exact Euclidean projection of c onto the fidelity ball.

    Because restriction-after-synthesis has orthonormal rows, the projection is
    c minus the analyzed zero-extension of the clipped residual.

    ``sample`` is a SampleSet with ``y`` its sampled values.  For a (B, M)
    stack ``c`` of problems, ``sample`` is a complex (B, M) indicator of the
    kept points, ``y`` the zero-extended sampled values and ``sigma`` one
    radius per row.  Rows already inside their ball come back unchanged.
    """
    c = np.asarray(c, dtype=np.complex128)
    if isinstance(sample, SampleSet):
        y = np.asarray(y, dtype=np.complex128)
        if y.shape[0] != sample.count:
            raise ValueError("sampled values do not match the sample set")
        sample, y = extend_by_zero(np.ones(sample.count), sample), extend_by_zero(y, sample)
    rho = system._synthesize_array(c)
    rho *= sample
    rho -= y
    norm_rho = _row_norms(rho)
    over = norm_rho > sigma
    if not over.any():
        return c.copy()
    # rows inside their ball get scale 0, so the analysis leaves them unchanged
    ratio = np.divide(sigma, norm_rho, out=np.ones_like(norm_rho), where=over)
    rho *= (1.0 - ratio)[..., None]
    return c - system._analyze_array(rho)


@dataclass(frozen=True)
class RecoveryConfig:
    max_iterations: int = 5000
    step: float = 1.0
    tolerance: float = 1e-9
    fidelity_radius: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.fidelity_radius < 0:
            raise ValueError("fidelity radius must be nonnegative")


@dataclass(frozen=True)
class RecoveryResult:
    recovered: Signal
    coefficient_l1: float
    fidelity_residual: float
    iterations: int
    converged: bool
    tau: float
    relative_error: Optional[float] = None


def recover_l1(
    system: OrthonormalSystem,
    sample: SampleSet,
    y: np.ndarray,
    config: RecoveryConfig = RecoveryConfig(),
    truth: Optional[Signal] = None,
) -> RecoveryResult:
    """l1 recovery of one problem by Douglas-Rachford: ``recover_l1_batch`` with B = 1."""
    truths = None if truth is None else [truth]
    return recover_l1_batch(system, [sample], [y], config, truths)[0]


# Rows per solve are capped so that one (B, M) complex stack stays near 4 MiB;
# the solver keeps about ten of them alive at a time.
_STACK_ENTRIES = 1 << 18


def recover_l1_batch(
    system: OrthonormalSystem,
    samples: Sequence[SampleSet],
    ys: Sequence[np.ndarray],
    config: Union[RecoveryConfig, Sequence[RecoveryConfig]] = RecoveryConfig(),
    truths: Optional[Sequence[Signal]] = None,
) -> list[RecoveryResult]:
    """Douglas-Rachford splitting between soft thresholding and the fidelity
    projection, on a (B, M) stack of independent problems.

    Row i recovers from ``samples[i]`` and its sampled values ``ys[i]``.
    ``config`` holds for every row, or is a sequence with one per row; such
    configs may differ only in their fidelity radius.  Each row stops by its
    own rule and then leaves the active stack, so it runs the same iterations
    it would run alone; large batches are solved a bounded stack at a time.
    The returned coefficients are post-processed by one fidelity projection
    so the constraint holds up to the stopping tolerance even on early exit.
    """
    count = len(samples)
    configs = [config] * count if isinstance(config, RecoveryConfig) else list(config)
    if len(ys) != count or len(configs) != count or (truths is not None and len(truths) != count):
        raise ValueError("samples, values, configs and truths must have one entry per problem")
    if count == 0:
        return []
    solver = {(cfg.max_iterations, cfg.step, cfg.tolerance) for cfg in configs}
    if len(solver) != 1:
        raise ValueError("a batch shares max_iterations, step and tolerance")
    ((max_iterations, step, tolerance),) = solver
    per_stack = max(1, _STACK_ENTRIES // system.size)
    if count > per_stack:
        return [
            result
            for start in range(0, count, per_stack)
            for result in recover_l1_batch(
                system,
                samples[start : start + per_stack],
                ys[start : start + per_stack],
                configs[start : start + per_stack],
                None if truths is None else truths[start : start + per_stack],
            )
        ]
    mask = np.zeros((count, system.size), dtype=np.complex128)
    y_ext = np.zeros((count, system.size), dtype=np.complex128)
    for i, (sample, y) in enumerate(zip(samples, ys)):
        y = np.asarray(y, dtype=np.complex128)
        if sample.group != system.group:
            raise ValueError(f"sample on {sample.group} does not match system on {system.group}")
        if y.shape != (sample.count,):
            raise ValueError("sampled values do not match the sample set")
        if not np.isfinite(y).all():
            raise ValueError("sampled values must be finite")
        mask[i, sample.kept] = 1.0
        y_ext[i, sample.kept] = y
    sigma = np.array([cfg.fidelity_radius for cfg in configs])

    best = np.empty((count, system.size), dtype=np.complex128)
    iterations = np.full(count, max_iterations)
    converged = np.zeros(count, dtype=bool)
    # the active stack: rows still iterating, and their problem data
    rows, a_mask, a_y, a_sigma = np.arange(count), mask, y_ext, sigma
    z = system._analyze_array(y_ext)
    for it in range(1, max_iterations + 1):
        x = project_fidelity(system, z, a_mask, a_y, a_sigma)
        shrunk = soft_threshold(2.0 * x - z, step)
        z_next = z + shrunk - x
        delta = _row_norms(z_next - z)
        z = z_next
        stopped = delta <= tolerance * np.maximum(1.0, _row_norms(z))
        if stopped.any():
            best[rows[stopped]] = shrunk[stopped]
            converged[rows[stopped]] = True
            iterations[rows[stopped]] = it
            keep = ~stopped
            z, shrunk, rows, a_mask, a_y, a_sigma = (
                a[keep] for a in (z, shrunk, rows, a_mask, a_y, a_sigma)
            )
            if not rows.size:
                break
    else:
        best[rows] = shrunk  # rows that ran out of iterations

    c_star = project_fidelity(system, best, mask, y_ext, sigma)
    recovered = system._synthesize_array(c_star)
    residual = _row_norms(recovered * mask - y_ext)
    coefficient_l1 = np.abs(c_star).sum(axis=-1)
    rel_err = [None] * count
    if truths is not None:
        err = _row_norms(recovered - np.stack([t.values for t in truths]))
        rel_err = [float(e) / t.l2 if t.l2 > 0 else None for e, t in zip(err, truths)]
    return [
        RecoveryResult(
            recovered=Signal(system.group, recovered[i]),
            coefficient_l1=float(coefficient_l1[i]),
            fidelity_residual=float(residual[i]),
            iterations=int(iterations[i]),
            converged=bool(converged[i]),
            tau=system.tau,
            relative_error=rel_err[i],
        )
        for i in range(count)
    ]


def sample_complexity(r: float, eps: float, M: int, tau: float, C: float = 1.0) -> float:
    """Threshold on p*M for stable recovery, with the (tau sqrt(M))^2 system scaling.

    The log(r/eps) factor is floored at 1 so r/eps <= e stays nondegenerate.
    """
    check_bound_args(r, eps, M)
    if tau <= 0:
        raise ValueError("tau must be positive")
    log_factor = max(1.0, math.log(r / eps))
    return C * (tau * math.sqrt(M)) ** 2 * (r / eps) ** 2 * log_factor**2 * math.log(M)


@dataclass(frozen=True)
class ErasureStatistics:
    empirical_prob: float
    exact_prob: float
    threshold: float


def erasure_row_statistics(
    N: int, T: int, theta: float, E_max: int, trials: int, seed: int
) -> ErasureStatistics:
    """P(max over T rows of Binomial(N, theta) < N / (2 E_max)), exact and simulated.

    Each of the N frequencies in each of the T rows is lost independently with
    probability theta; the event is that no row loses enough frequencies to
    break the half-support margin.
    """
    if E_max < 1:
        raise ValueError("E_max must be >= 1")
    if not 0.0 < theta < 1.0 / (2 * E_max):
        raise ValueError(f"loss probability must satisfy 0 < theta < 1/(2*E_max) = {1.0 / (2 * E_max)}")
    if N < 1 or T < 1 or trials < 1:
        raise ValueError("N, T, trials must be >= 1")
    threshold = N / (2.0 * E_max)
    per_row = float(binom.cdf(math.ceil(threshold) - 1, N, theta))
    exact = per_row**T
    rng = np.random.default_rng(seed)
    losses = rng.binomial(N, theta, size=(trials, T))
    empirical = float(np.mean(losses.max(axis=1) < threshold))
    return ErasureStatistics(empirical_prob=empirical, exact_prob=exact, threshold=threshold)
