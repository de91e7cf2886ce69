"""The l1/l2 coefficient ratio and soft sparsification built on it."""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .groups import CoefficientVector, _accurate_l2, _unit_scaled


def _entries(c) -> np.ndarray:
    if isinstance(c, CoefficientVector):
        return c.entries
    return np.asarray(c, dtype=np.complex128).reshape(-1)


def fourier_ratio(c) -> float:
    """||c||_1 / ||c||_2; lies in [1, sqrt(nnz(c))].  Undefined (raises) for c = 0."""
    v = _entries(c)
    with np.errstate(over="ignore"):
        l2 = float(np.linalg.norm(v))
    if not _accurate_l2(l2):  # huge or tiny c: the same ratio, from an exactly rescaled copy
        v = _unit_scaled(v)
        l2 = float(np.linalg.norm(v))
    if l2 == 0.0:
        raise ValueError("ratio undefined for the zero vector")
    return float(np.sum(np.abs(v))) / l2


def check_ratio_bound(r: float) -> None:
    """Validate the ratio bound r that every bound takes: finite and >= 1."""
    if not 1 <= r < math.inf:
        raise ValueError(f"ratio bound r must be >= 1 and finite, got {r}")


def check_bound_args(r: float, eps: float, M: int) -> None:
    """Validate the (ratio bound, accuracy, domain size) triple the bounds take."""
    check_ratio_bound(r)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if M < 2:
        raise ValueError("M must be >= 2")


def refuses_overflow(message: str = "the bound overflows at r={r}, eps={eps}"):
    """Wrap a closed-form bound so that a value past float64 is a ValueError
    with ``message``, formatted with the bound's arguments by name.

    Python's float power and ``math.ceil`` of inf raise OverflowError, and a
    product overflows to inf silently; both become the one refusal.
    """

    def wrap(bound):
        @functools.wraps(bound)
        def checked(*args, **kwargs):
            try:
                value = bound(*args, **kwargs)
            except OverflowError:
                value = math.inf
            # a bound that returns integer grid sizes overflows only by raising
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(message.format(**inspect.signature(bound).bind(*args, **kwargs).arguments))
            return value

        return checked

    return wrap


@dataclass(frozen=True)
class SparsifyResult:
    support: np.ndarray
    s: int
    tail_l2: float
    tail_l1: float
    ratio: float  # FR(c), which s was derived from


def top_indices(c, s: int) -> np.ndarray:
    """Indices of the s largest magnitudes, in ascending order.

    Ties at the s-th largest magnitude go to the lowest indices, and NaN
    ranks below every number.  Linear time: introselect (``np.partition``)
    finds the s-th smallest t of the keys -|c|, and a mask keeps the keys
    below t and then the first of those equal to t.
    """
    key = np.fmin(-np.abs(_entries(c)), np.inf)  # fmin reads NaN as +inf, after every number
    M = key.size
    if s >= M:
        return np.arange(M)
    kth = max(s - 1, 0)
    t = np.partition(key, kth)[kth]
    keep = key < t
    keep[np.flatnonzero(key == t)[: s - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def soft_sparsify(c, eta: float) -> SparsifyResult:
    """Truncate c to its s = ceil(FR^2/eta^2) largest entries (clamped to M).

    The choice of s guarantees an l2 tail of at most eta * ||c||_2.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    v = _entries(c)
    r = fourier_ratio(v)
    M = v.shape[0]
    # FR^2 / eta^2 is inf where it overflows, or where eta^2 underflows to 0
    x = r * r / (eta * eta) if eta * eta > 0.0 else math.inf
    s = math.ceil(x) if x < M else M
    support = top_indices(v, s)
    # v - v on the support (NaN where an entry is infinite or NaN), v elsewhere
    tail = v.copy()
    tail[support] -= v[support]
    return SparsifyResult(
        support=support,
        s=s,
        tail_l2=float(np.linalg.norm(tail)),
        tail_l1=float(np.sum(np.abs(tail))),
        ratio=r,
    )


def sorted_decay_check(c) -> bool:
    """Verify |c_(j)| <= FR(c) * ||c||_2 / j for the magnitude-sorted entries.

    Holds for every nonzero vector; exposed as a self-test oracle.
    """
    v = _entries(c)
    r = fourier_ratio(v)
    l2 = float(np.linalg.norm(v))
    mags = np.sort(np.abs(v))[::-1]
    j = np.arange(1, mags.shape[0] + 1)
    return bool(np.all(mags * j <= r * l2 * (1.0 + 1e-12)))


def harmonic_model(M: int) -> np.ndarray:
    """Coefficient vector (1, 1/2, ..., 1/M): dense but with ratio ~ log M."""
    if M < 3:
        raise ValueError(f"harmonic model needs M >= 3, got {M}")
    return 1.0 / np.arange(1, M + 1, dtype=np.float64) + 0j
