"""Randomized coefficient-sampling estimator, covering quantizer, and the
log-scale dimension bound.

A signal f with coefficients g is estimated by drawing basis indices with
probability |g(m)| / ||g||_1 and averaging the rank-one synthesis terms; the
estimate is unbiased with mean-squared error at most M tau^2 r^2 / k.

``sq_sample`` and ``sq_mse`` draw through one recipe (``_WeightedDraws``):
the indices ``Generator.choice(M, size, p=|g| / ||g||_1)`` returns, from the
same uniforms of the same stream, found through a guide table of G equal
buckets over the cdf (Chen & Asau 1974) instead of a binary search per draw.
G is a power of two, so a uniform's bucket is exact, and where a bucket holds
at most one cdf point one comparison gives ``searchsorted``'s index; keys in
wider buckets are searched.  G is at most 16 M, the number of draws of the
call and 2^16: the table has no more buckets than the call has draws, its
build costs O(min(M + G, G log M)), and its memory is bounded at any M.

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

from .groups import Signal, _unit_scaled
from .ratio import check_ratio_bound, fourier_ratio, refuses_overflow
from .systems import OrthonormalSystem

# Entries per sq_mse stack, counted over the wider of the (rows, k) draws and
# the (rows, M) synthesis: under 2 MB of temporaries per stack.  Larger stacks
# were no faster and raised the peak memory.
_STACK_ENTRIES = 1 << 14

# Guide-table buckets for the weighted draw: at most 16 per coefficient, one
# per draw of the call, and 2^16 in all (512 KiB of counts).  At 16 per
# coefficient 0.01-1.3 % of the benchmark's sq_mse draws need the binary search.
_BUCKETS_PER_POINT = 16
_MAX_BUCKETS = 1 << 16

# At and below this modulus 1/|g| overflows, and g / |g| with it.
_RECIPROCAL_FLOOR = 2.0**-1024


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


def _bucket_count(M: int, draws: int) -> int:
    """Guide-table size G: the largest power of two at most _BUCKETS_PER_POINT * M,
    the number of draws and _MAX_BUCKETS."""
    cap = min(_BUCKETS_PER_POINT * M, draws, _MAX_BUCKETS)
    return 1 << (cap.bit_length() - 1)


def _unit_phases(g: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """g / |g|, zero where g is.

    Where 1/|g| overflows (|g| <= 2^-1024) the phase is that of g times an
    exact power of two; every other entry is the plain quotient, bit for bit.
    """
    unit = np.zeros(g.shape[0], dtype=np.complex128)
    plain = np.flatnonzero(mags > _RECIPROCAL_FLOOR)
    unit[plain] = g[plain] / mags[plain]
    if plain.size < np.count_nonzero(mags):
        tiny = np.flatnonzero((mags > 0.0) & (mags <= _RECIPROCAL_FLOOR))
        scaled = _unit_scaled(g[tiny])
        unit[tiny] = scaled / np.abs(scaled)
    return unit


def _edge_counts(cdf: np.ndarray, G: int) -> np.ndarray:
    """#{i : cdf[i] <= b/G} for the bucket edges b = 0..G of a sorted cdf.

    One bincount of ceil(cdf G), O(M + G); cdf * G is exact, G being a power
    of two, so ceil(cdf[i] G) <= b exactly where cdf[i] <= b/G.
    """
    return np.cumsum(np.bincount(np.ceil(cdf * G).astype(np.intp), minlength=G + 1))


@dataclass(frozen=True)
class _WeightedDraws:
    """The |g|-weighted distribution over the coefficients g of a signal, and
    a guide table over its cdf for drawing from it."""

    g: np.ndarray
    l1: float
    unit: np.ndarray  # g / |g|, zero where g is
    cdf: np.ndarray  # cumsum(|g| / l1) / its last entry, as Generator.choice forms it
    start: np.ndarray  # per bucket [b/G, (b+1)/G): #{i : cdf[i] <= b/G}
    wide: np.ndarray  # per bucket: whether two or more cdf points lie in (b/G, (b+1)/G]

    @classmethod
    def of(cls, g: np.ndarray, draws: int) -> "_WeightedDraws":
        """The distribution of coefficients g, with a table sized for ``draws`` draws."""
        mags = np.abs(g)
        with np.errstate(over="ignore"):
            l1 = float(np.sum(mags))
        if l1 == 0.0:
            raise ValueError("cannot sample from the zero signal")
        if not math.isfinite(l1):
            raise ValueError(f"cannot sample: the coefficients' l1 norm is {l1}, not a finite float64")
        cdf = (mags / l1).cumsum()
        cdf /= cdf[-1]
        G = _bucket_count(g.shape[0], draws)
        counts = _edge_counts(cdf, G)
        return cls(g=g, l1=l1, unit=_unit_phases(g, mags), cdf=cdf, start=counts[:G], wide=np.diff(counts) > 1)

    def draw(self, rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the given shape and their unit phases.

        The same indices, from the same stream, as
        ``rng.choice(M, size=shape, p=|g| / l1)``: the same cdf, the same
        uniforms ``rng.random(shape)`` (filled in C order, so one (rows, k)
        draw consumes the stream exactly as rows successive draws of k), and
        for each u the index ``cdf.searchsorted(u, side="right")``, the count
        of cdf points at most u.  u lies in bucket b = floor(u G), exact since
        G is a power of two.  The start[b] points at most b/G are at most u,
        and every point above (b+1)/G is above u; so where at most one point,
        cdf[start[b]], lies in (b/G, (b+1)/G], the count is
        ``start[b] + (cdf[start[b]] <= u)``.  Keys in wider buckets are looked
        up with ``searchsorted``.
        """
        u = rng.random(shape)
        b = (u * self.start.shape[0]).astype(np.intp)
        indices = np.take(self.start, b)
        indices += np.take(self.cdf, indices) <= u
        wide = np.take(self.wide, b)
        if wide.any():
            indices[wide] = self.cdf.searchsorted(u[wide], side="right")
        return indices, np.take(self.unit, indices)


def sq_sample(system: OrthonormalSystem, f: Signal, k: int, seed: int) -> RandomFunctional:
    """Draw k indices from the |g|-weighted distribution of the coefficients g."""
    if k < 1:
        raise ValueError("k must be >= 1")
    weighted = _WeightedDraws.of(system.analyze(f).entries, k)
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
    weighted = _WeightedDraws.of(system.analyze(f).entries, trials * k)
    r = fourier_ratio(weighted.g)
    rng = np.random.default_rng(seed)
    amplitude = weighted.l1 / k
    rows = _stack_rows(M, k)
    per_trial = np.empty(trials)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for start in range(0, trials, rows):
            n = min(rows, trials - start)
            idx, phases = weighted.draw(rng, (n, k))
            P = system._synthesize_array(amplitude * _accumulate(idx, phases, M))
            per_trial[start : start + n] = (distribution * np.abs(f.values - P) ** 2).sum(axis=-1)
    if not np.all(np.isfinite(per_trial)):
        raise ValueError("a trial's weighted squared error is not finite: the signal's scale overflows float64")
    bound = M * system.tau**2 * r**2 / k
    # the spread of the errors over 2^e, near the largest, keeps their squares
    # finite; scaling by a power of two is exact, so finite spreads keep their bits
    e = int(np.frexp(per_trial.max())[1])
    std_error = math.ldexp(float(np.ldexp(per_trial, -e).std(ddof=1)), e) / math.sqrt(trials) if trials > 1 else 0.0
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


_covering_overflow = refuses_overflow("the covering quantities overflow at M={M}, tau={tau}, r={r}")


@_covering_overflow
def covering_params(M: int, tau: float, r: float) -> CoveringParams:
    _check_covering_args(M, tau, r)
    k = math.ceil(16**2 * M * tau**2 * r**2)
    N2 = math.ceil(16 * tau * r * math.sqrt(M))
    N1 = math.ceil(16 * tau * k)
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
    if k < 1:
        raise ValueError("k must be >= 1")
    a_max = params.r * math.sqrt(params.M) / k
    return params.tau * k * (a_max / params.N2 + 1.0 / params.N1 + 1.0 / (params.N1 * params.N2))


@_covering_overflow
def sq_dim_log2(M: int, tau: float, r: float) -> float:
    """log2 of M^E (16^3 tau^3 M r^2 + 1) (16 tau r sqrt(M))^E with E = 16^2 M tau^2 r^2.

    Evaluated in log space; a ValueError where even that overflows.
    """
    _check_covering_args(M, tau, r)
    E = 16**2 * M * tau**2 * r**2
    middle = 16**3 * tau**3 * M * r**2 + 1.0
    return E * math.log2(M) + math.log2(middle) + E * math.log2(16 * tau * r * math.sqrt(M))
