"""Bernoulli sampling and l1-minimization recovery via Douglas-Rachford splitting.

The program solved is

    min ||c||_1   subject to   || restrict_X(synthesize(c)) - y ||_2 <= sigma.

Sampling-after-synthesis is a partial isometry, so the projection onto the
fidelity ball has a closed form and the splitting needs no inner solves.  On
domains of 1024 points or more the splitting is Anderson-accelerated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .groups import FiniteAbelianGroup, Signal
from .ratio import check_bound_args, refuses_overflow
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


def check_keep_probability(p: float) -> None:
    """A keep probability lies in (0, 1]; NaN fails too."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"keep probability must lie in (0, 1], got {p}")


def bernoulli_sample(group: FiniteAbelianGroup, p: float, seed: int) -> SampleSet:
    check_keep_probability(p)
    rng = np.random.default_rng(seed)
    mask = rng.random(group.size) < p
    return SampleSet(group=group, kept=np.flatnonzero(mask), p=float(p), seed=int(seed))


def restrict(signal_values: np.ndarray, sample: SampleSet) -> np.ndarray:
    return signal_values[sample.kept]


def extend_by_zero(sampled: np.ndarray, sample: SampleSet) -> np.ndarray:
    full = np.zeros(sample.group.size, dtype=np.complex128)
    full[sample.kept] = sampled
    return full


class _Norms:
    """Euclidean norms of the rows of a C-contiguous complex array, along its
    last axis, into a buffer made once: call it again after the array changes.

    The kernel is the matmul of the rows' interleaved real and imaginary
    parts with themselves, so every caller gets the same bits.
    """

    def __init__(self, a: np.ndarray):
        v = a.view(np.float64)
        self.operands = v[..., None, :], v[..., :, None]
        self.out = np.empty(a.shape[:-1] + (1, 1))
        self.rows = self.out[..., 0, 0]

    def __call__(self) -> np.ndarray:
        np.matmul(*self.operands, out=self.out)
        np.sqrt(self.out, out=self.out)
        return self.rows


class _Threshold:
    """Complex soft thresholding z -> z * max(0, 1 - lam/|z|), with 0 -> 0, on arrays of one shape."""

    def __init__(self, shape: tuple[int, ...]):
        self.mags = np.empty(shape)
        self.scale = np.empty(shape)
        self.nonzero = np.empty(shape, dtype=bool)

    def __call__(self, v: np.ndarray, lam: float, out: np.ndarray) -> np.ndarray:
        mags, scale = self.mags, self.scale
        np.abs(v, out=mags)
        np.subtract(mags, lam, out=scale)
        np.maximum(scale, 0.0, out=scale)
        # for lam >= 0 the scale is already 0 where |z| = 0
        np.divide(scale, mags, out=scale, where=np.greater(mags, 0, out=self.nonzero))
        return np.multiply(v, scale, out=out)


class _Projection:
    """Exact Euclidean projection onto the fidelity balls of a stack of rows.

    ``mask`` is the complex indicator of the kept points, ``y`` the
    zero-extended sampled values and ``sigma`` the radius, one per row or one
    for all; ``shape`` is that of the coefficient arrays to project.
    Restriction-after-synthesis has orthonormal rows, so the projection is c
    minus the analyzed zero-extension of the clipped residual.
    """

    def __init__(self, system: OrthonormalSystem, mask, y, sigma, shape: tuple[int, ...]):
        self.system, self.mask, self.y, self.sigma = system, mask, y, sigma
        self.zero_radius = not np.count_nonzero(sigma)
        self.rho = np.empty(shape, dtype=np.complex128)
        self.norms = _Norms(self.rho)
        self.over = np.empty(shape[:-1], dtype=bool)
        self.ratio = np.empty(shape[:-1])

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """The projection of c; c itself when every row is inside its ball."""
        rho = np.multiply(self.system._synthesize_array(c), self.mask, out=self.rho)
        np.subtract(rho, self.y, out=rho)
        norm_rho = self.norms()
        over = np.greater(norm_rho, self.sigma, out=self.over)
        n_over = np.count_nonzero(over)
        if not n_over:
            return c
        if self.zero_radius and n_over == over.size:
            # every scale 1 - 0/||rho|| is 1.0; the multiply still runs, since
            # numpy multiplies by 1 + 0j and that turns some -0.0 parts into +0.0
            np.multiply(rho, 1.0, out=rho)
        else:
            # rows inside their ball get scale 0, so the analysis leaves them unchanged
            ratio = self.ratio
            ratio.fill(1.0)
            np.divide(self.sigma, norm_rho, out=ratio, where=over)
            np.subtract(1.0, ratio, out=ratio)
            np.multiply(rho, ratio[..., None], out=rho)
        analyzed = self.system._analyze_array(rho)
        return np.subtract(c, analyzed, out=analyzed)


def soft_threshold(c: np.ndarray, lam: float) -> np.ndarray:
    """Complex soft thresholding z -> z * max(0, 1 - lam/|z|), with 0 -> 0."""
    if not lam >= 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(c, dtype=np.complex128)
    return _Threshold(v.shape)(v, lam, np.empty_like(v))


def _pack(system: OrthonormalSystem, samples: Sequence[SampleSet], ys: Sequence[np.ndarray]):
    """The (B, M) complex indicators of the kept points and the zero-extended
    sampled values of B (sample, values) pairs, each checked against the system."""
    mask = np.zeros((len(samples), system.size), dtype=np.complex128)
    y_ext = np.zeros((len(samples), system.size), dtype=np.complex128)
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
    return mask, y_ext


def project_fidelity(
    system: OrthonormalSystem,
    c: np.ndarray,
    sample: Union[SampleSet, np.ndarray],
    y: np.ndarray,
    sigma: Union[float, np.ndarray],
) -> np.ndarray:
    """Exact Euclidean projection of c onto the fidelity ball (see ``_Projection``).

    ``sample`` is a SampleSet with ``y`` its sampled values.  For a (B, M)
    stack ``c`` of problems, ``sample`` is a complex (B, M) indicator of the
    kept points, ``y`` the zero-extended sampled values and ``sigma`` one
    radius per row.  Rows already inside their ball come back unchanged.
    """
    c = np.asarray(c, dtype=np.complex128)
    if isinstance(sample, SampleSet):
        (sample,), (y,) = _pack(system, [sample], [y])
    x = _Projection(system, sample, y, sigma, c.shape)(c)
    return c.copy() if x is c else x


class _Stack:
    """The rows of a solve that are still iterating: their problem data and
    the work buffers of one Douglas-Rachford step.  The buffers are made once
    and remade only when rows leave the stack."""

    def __init__(self, system: OrthonormalSystem, rows, mask, y, sigma, z):
        self.system, self.rows, self.mask, self.y, self.sigma = system, rows, mask, y, sigma
        self.project = _Projection(system, mask, y, sigma, z.shape)
        self.threshold = _Threshold(z.shape)
        # Two (2, B, M) buffers take turns: [0] holds the reflection 2x - z,
        # then z_next - z; [1] holds z_next, the next step's z.  One matmul
        # gives the row norms of both halves.
        pairs = [np.empty((2,) + z.shape, dtype=np.complex128) for _ in range(2)]
        pairs[0][1] = z
        self.current, self.other = ((pair[0], pair[1], _Norms(pair)) for pair in pairs)
        self.shrunk = np.empty(z.shape, dtype=np.complex128)
        self.bound = np.empty(rows.size)
        self.stopped = np.empty(rows.size, dtype=bool)

    def step(self, lam: float, tolerance: float) -> int:
        """One iteration; marks the rows that stop in ``stopped`` and returns their count."""
        z = self.current[1]
        work, z_next, norms = self.other
        x = self.project(z)
        np.multiply(2.0, x, out=work)
        np.subtract(work, z, out=work)
        self.threshold(work, lam, out=self.shrunk)
        np.add(z, self.shrunk, out=z_next)
        np.subtract(z_next, x, out=z_next)
        np.subtract(z_next, z, out=work)
        delta, size = norms()
        bound = np.maximum(1.0, size, out=self.bound)
        np.multiply(tolerance, bound, out=bound)
        np.less_equal(delta, bound, out=self.stopped)
        self.current, self.other = self.other, self.current
        return np.count_nonzero(self.stopped)

    def without_stopped(self) -> "_Stack":
        keep = ~self.stopped
        z = self.current[1]
        rest = type(self)(self.system, *(a[keep] for a in (self.rows, self.mask, self.y, self.sigma, z)))
        rest.shrunk[...] = self.shrunk[keep]
        return rest


# Secant pairs an Anderson row keeps.  Fewer cost more map evaluations at
# M = 4096: 34 % more with 5, 76 % more with 3.
_MEMORY = 10
_IDENTITY = np.eye(_MEMORY)
_IDENTITY.setflags(write=False)
_TINY = np.finfo(np.float64).tiny


class _AndersonStack(_Stack):
    """A stack whose next point is the type-II Anderson extrapolation of the
    Douglas-Rachford map T (Walker & Ni 2011; Fu, Zhang & Boyd 2020).

    Each step evaluates T at z as the plain stack does, with the same
    thresholded iterate and stop rule, but a row stops only at a point it
    accepts.  A row whose residual f = T(z) - z is no larger than at its last
    accepted point accepts z: the secant pair (change in f, change in T) joins
    a ring of _MEMORY pairs and the next point is T(z) - dG gamma, with gamma
    the least-squares fit of f by the dF ring.  A row whose residual grew, or
    is not finite, goes back to the plain image T of its accepted point with
    an empty ring, and that point stays the partner of its next secant pair.
    Every operation is per row, so a row runs the same steps whatever else is
    in its stack.
    """

    def __init__(self, system: OrthonormalSystem, rows, mask, y, sigma, z):
        super().__init__(system, rows, mask, y, sigma, z)
        pair = np.empty((2,) + z.shape, dtype=np.complex128)
        self.accepted = (pair[0], pair[1], _Norms(pair))  # f and T at the accepted point
        self.accepted_residual = np.full(rows.size, np.inf)
        self.accept = np.empty(rows.size, dtype=bool)
        # dF and dG rings, (2, B, m, M); zeroed slots get gamma = 0 and so need no mask
        self.history = np.zeros((2, rows.size, _MEMORY, z.shape[-1]), dtype=np.complex128)
        self.gram = np.zeros((rows.size, _MEMORY, _MEMORY))
        self.evaluations = 0

    def step(self, lam: float, tolerance: float) -> int:
        super().step(lam, tolerance)
        self.evaluations += 1
        f, g, norms = self.current
        accept = np.less_equal(norms.rows[0], self.accepted_residual, out=self.accept)
        # a rejected point's bound grows with its blown-up extrapolation, so only accepted points stop
        n_stopped = np.count_nonzero(np.logical_and(self.stopped, accept, out=self.stopped))
        d_f, d_g = self.history.view(np.float64)  # complex pairs as float64, (B, m, 2M) each
        slot = self.evaluations % _MEMORY
        if self.evaluations > 1:  # the first point has no partner
            f_acc, g_acc, _ = self.accepted
            np.subtract(f, f_acc, out=self.history[0, :, slot])
            np.subtract(g, g_acc, out=self.history[1, :, slot])
            column = np.matmul(d_f, d_f[:, slot, :, None])[..., 0]
            self.gram[:, :, slot] = column
            self.gram[:, slot, :] = column
        if accept.all():
            self.accepted, self.current = self.current, self.accepted
            self.accepted_residual[...] = norms.rows[0]
        else:
            reject = ~accept
            self.history[:, reject] = 0.0
            self.gram[reject] = 0.0
            for kept, new in zip(self.accepted[:2], (f, g)):
                np.copyto(kept, new, where=accept[:, None])
            np.copyto(self.accepted_residual, norms.rows[0], where=accept)
            self.accepted_residual[reject] = np.inf  # T of the accepted point is a plain step
        f_acc, g_acc, _ = self.accepted
        # a Tikhonov term scaled by the trace keeps the fit solvable when the ring is rank deficient
        ridge = 1e-10 * self.gram.trace(axis1=1, axis2=2) + _TINY
        regularized = self.gram + ridge[:, None, None] * _IDENTITY
        gamma = np.linalg.solve(regularized, np.matmul(d_f, f_acc.view(np.float64)[..., None]))
        z = self.current[1]
        np.matmul(gamma.transpose(0, 2, 1), d_g, out=z.view(np.float64)[:, None, :])
        np.subtract(g_acc, z, out=z)
        return n_stopped

    def without_stopped(self) -> "_AndersonStack":
        keep = ~self.stopped
        rest = super().without_stopped()
        for mine, theirs in zip(self.accepted[:2], rest.accepted[:2]):
            theirs[...] = mine[keep]
        rest.accepted_residual[...] = self.accepted_residual[keep]
        # kept rows move forward in place, one ring and row at a time, so no
        # second ring or row temporary is made (rest's zeroed ring is never touched)
        for new, old in enumerate(np.flatnonzero(keep)):
            for ring in self.history:
                ring[new] = ring[old]
        rest.history = self.history[:, : rest.rows.size]
        rest.gram = self.gram[keep]
        rest.evaluations = self.evaluations
        return rest


@dataclass(frozen=True)
class RecoveryConfig:
    max_iterations: int = 5000
    step: float = 1.0
    tolerance: float = 1e-9
    fidelity_radius: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # written so that NaN fails too: the solver's soft threshold needs step > 0
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.step > 0:
            raise ValueError("step must be positive")
        check_fidelity_radius(self.fidelity_radius)


def check_fidelity_radius(sigma) -> None:
    """A fidelity radius, or an array of them, is finite and >= 0; NaN fails too."""
    if not np.all((0 <= sigma) & (sigma < math.inf)):
        raise ValueError("fidelity radius must be nonnegative and finite")


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
    _check_truths(system, [truth])
    return next(_solve_stacks(system, config, [(sample, y, config.fidelity_radius, truth)]))


# Rows per stack are capped so that one (B, M) complex stack stays near 4 MiB;
# the plain solver keeps about ten of them alive at a time.
_STACK_ENTRIES = 1 << 18

# Domains of this many points or more are solved by _AndersonStack.  Below it
# the plain step is cheaper: at M = 64 one batched 10 x 10 solve costs more
# than the map evaluations it saves.
_ANDERSON_MIN_SIZE = 1024


def recover_l1_batch(
    system: OrthonormalSystem,
    samples: Sequence[SampleSet],
    ys: Sequence[np.ndarray],
    config: Union[RecoveryConfig, Sequence[RecoveryConfig]] = RecoveryConfig(),
    truths: Optional[Sequence[Signal]] = None,
) -> list[RecoveryResult]:
    """Douglas-Rachford splitting between soft thresholding and the fidelity
    projection, on independent problems solved a (B, M) stack at a time.

    Row i recovers from ``samples[i]`` and its sampled values ``ys[i]``.
    ``config`` holds for every row, or is a sequence with one per row; such
    configs may differ only in their fidelity radius.  ``truths``, one per
    row, are all None or all Signals on the system's group, and give each
    result its relative error; anything else is a ValueError before any
    solve.  Each row stops by its own rule and then leaves the active stack,
    so it runs the same iterations it would run alone.  A stack holds
    ``_STACK_ENTRIES // M`` rows (4096 at M = 64), a quarter of that under
    Anderson (16 at M = 4096).  The returned coefficients are post-processed
    by one fidelity projection so the constraint holds up to the stopping
    tolerance even on early exit.

    Domains of fewer than 1024 points run plain DR.  Larger ones run DR with
    type-II Anderson acceleration (memory 10, see ``_AndersonStack``), which
    keeps 20 M complex entries of history per row: 1.25 MiB at M = 4096.
    There ``iterations`` counts evaluations of the DR map, rejected Anderson
    steps included, against ``max_iterations``.
    """
    count = len(samples)
    configs = [config] * count if isinstance(config, RecoveryConfig) else list(config)
    truths = [None] * count if truths is None else list(truths)
    if len(ys) != count or len(configs) != count or len(truths) != count:
        raise ValueError("samples, values, configs and truths must have one entry per problem")
    if len({(cfg.max_iterations, cfg.step, cfg.tolerance) for cfg in configs}) > 1:
        raise ValueError("a batch shares max_iterations, step and tolerance")
    _check_truths(system, truths)
    if not count:
        return []
    radii = (cfg.fidelity_radius for cfg in configs)
    return list(_solve_stacks(system, configs[0], zip(samples, ys, radii, truths)))


def _check_truths(system: OrthonormalSystem, truths: Sequence[Optional[Signal]]) -> None:
    """Truths are all None, or all Signals on the system's group."""
    if not (
        all(t is None for t in truths) or all(isinstance(t, Signal) and t.group == system.group for t in truths)
    ):
        raise ValueError(f"truths must be all None or all Signals on {system.group}")


def _solve_stacks(
    system: OrthonormalSystem, config: RecoveryConfig, problems: Iterable[tuple]
) -> Iterator[RecoveryResult]:
    """The results of (sample, values, fidelity radius, truth) problems, solved
    a stack at a time with ``config``'s max_iterations, step and tolerance as
    they are taken from ``problems``: memory does not grow with their number.
    Each (sample, values, radius) row is checked as its stack is packed; the
    callers check that the truths are all None or all Signals on the group."""
    stack_type = _AndersonStack if system.size >= _ANDERSON_MIN_SIZE else _Stack
    # An Anderson row also holds 2 * _MEMORY secant vectors and its accepted
    # pair, about 3.2 times the arrays of a plain row, so its stacks hold a
    # quarter of the rows and a full one stays within the same budget.
    per_stack = max(1, _STACK_ENTRIES // (system.size * (4 if stack_type is _AndersonStack else 1)))
    problems = iter(problems)
    while stack := list(itertools.islice(problems, per_stack)):
        samples, ys, radii, truths = zip(*stack)
        count = len(stack)
        mask, y_ext = _pack(system, samples, ys)
        sigma = np.array(radii)
        check_fidelity_radius(sigma)  # eps * ||f||_2 is NaN where ||f||_2 overflows at eps = 0

        best = np.empty((count, system.size), dtype=np.complex128)
        iterations = np.full(count, config.max_iterations)
        converged = np.zeros(count, dtype=bool)
        active = stack_type(system, np.arange(count), mask, y_ext, sigma, system._analyze_array(y_ext))
        for it in range(1, config.max_iterations + 1):
            n_stopped = active.step(config.step, config.tolerance)
            if n_stopped:
                stopped, rows = active.stopped, active.rows
                best[rows[stopped]] = active.shrunk[stopped]
                converged[rows[stopped]] = True
                iterations[rows[stopped]] = it
                if n_stopped == rows.size:
                    break
                active = active.without_stopped()
        else:
            best[active.rows] = active.shrunk  # rows that ran out of iterations

        c_star = project_fidelity(system, best, mask, y_ext, sigma)
        recovered = system._synthesize_array(c_star)
        residual = _Norms(recovered * mask - y_ext)()
        coefficient_l1 = np.abs(c_star).sum(axis=-1)
        rel_err = [None] * count
        if truths[0] is not None:
            err = _Norms(recovered - np.stack([t.values for t in truths]))()
            rel_err = [float(e) / l2 if l2 > 0 else None for e, l2 in zip(err, (t.l2 for t in truths))]
        yield from (
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
        )


@refuses_overflow()
def sample_complexity(r: float, eps: float, M: int, tau: float, C: float = 1.0) -> float:
    """Threshold on p*M for stable recovery, with the (tau sqrt(M))^2 system scaling.

    The log(r/eps) factor is floored at 1 so r/eps <= e stays nondegenerate.
    """
    check_bound_args(r, eps, M)
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    log_factor = max(1.0, math.log(r / eps))
    return C * (tau * math.sqrt(M)) ** 2 * (r / eps) ** 2 * log_factor**2 * math.log(M)


_ERASURE_BLOCK_ENTRIES = 1 << 16  # binomial draws per erasure_row_statistics block: 512 KiB


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
    from scipy.stats import binom  # here, not at the top: slow to import, and only this function needs it

    threshold = N / (2.0 * E_max)
    per_row = float(binom.cdf(math.ceil(threshold) - 1, N, theta))
    exact = per_row**T
    rng = np.random.default_rng(seed)
    # binomial fills in C order, so blocks of rows take the stream one (trials, T) draw would
    rows = max(1, _ERASURE_BLOCK_ENTRIES // T)
    blocks = (rng.binomial(N, theta, size=(min(rows, trials - start), T)) for start in range(0, trials, rows))
    empirical = sum(int(np.count_nonzero(b.max(axis=1) < threshold)) for b in blocks) / trials
    return ErasureStatistics(empirical_prob=empirical, exact_prob=exact, threshold=threshold)
