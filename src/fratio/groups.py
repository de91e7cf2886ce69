"""Finite abelian groups as products of cyclic factors, and vectors indexed by them.

Element indexing is mixed-radix, factor-major with the last factor varying
fastest, i.e. the flat index of (x_1, ..., x_d) is the C-order index of the
tuple in an array of shape (n_1, ..., n_d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Largest domain built from outside input (a system spec, a signal file
# header, a descriptor stream): 2^24 points, a 256 MiB complex signal.  A few
# bytes of input could otherwise ask for any allocation.
MAX_DOMAIN_SIZE = 1 << 24


def check_domain_size(factors: Iterable[int], error: type[ValueError] = ValueError) -> tuple[int, ...]:
    """The cyclic factors as a tuple; ``error`` if they span more than MAX_DOMAIN_SIZE points.

    The product stops at the first partial product above the cap, so a long
    or lazy factor list costs no more than a short one.
    """
    checked = []
    size = 1
    for n in factors:
        size *= n
        if size > MAX_DOMAIN_SIZE:
            raise error(f"domain exceeds the cap of {MAX_DOMAIN_SIZE} points")
        checked.append(n)
    return tuple(checked)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_d}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise ValueError("group needs at least one cyclic factor")
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be >= 1, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.factors

    def index_to_tuple(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for group of size {self.size}")
        return tuple(int(v) for v in np.unravel_index(index, self.factors))

    def tuple_to_index(self, element: tuple[int, ...]) -> int:
        if len(element) != len(self.factors):
            raise ValueError("element arity does not match the factor list")
        reduced = tuple(x % n for x, n in zip(element, self.factors))
        return int(np.ravel_multi_index(reduced, self.factors))

    def __str__(self) -> str:
        return "x".join(str(n) for n in self.factors)


def _unit_exponent(v: np.ndarray) -> int:
    """The exponent e with complex v's largest real or imaginary part in [2^(e-1), 2^e)."""
    return int(np.frexp(np.abs(np.ascontiguousarray(v).view(np.float64)).max(initial=0.0))[1])


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """Complex v times the power of two that puts its largest real or imaginary part in [1/2, 1).

    The scale is exact, and the l1/l2 ratio does not depend on it.
    """
    parts = np.ascontiguousarray(v).view(np.float64)
    return np.ldexp(parts, -_unit_exponent(v)).view(np.complex128)


def _accurate_l2(l2):
    """Whether an l2 norm of this size is accurate: its sum of squares did not
    overflow, and on up to 2^24 entries what underflowed in it is below 2^-90 of it."""
    return (2.0**-480 < l2) & (l2 < 2.0**480)


def l2_norm(v: np.ndarray) -> float:
    """The Euclidean norm of complex v, as np.linalg.norm computes it where
    that is accurate; else that of an exactly rescaled copy, scaled back."""
    with np.errstate(over="ignore"):
        l2 = float(np.linalg.norm(v))
        if _accurate_l2(l2):
            return l2
        return float(np.ldexp(np.linalg.norm(_unit_scaled(v)), _unit_exponent(v)))


def _as_complex_vector(values, size: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    if arr.shape[0] != size:
        raise ValueError(f"expected {size} values, got {arr.shape[0]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Signal:
    """Complex-valued function on a finite abelian group (spatial side)."""

    group: FiniteAbelianGroup
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_vector(self.values, self.group.size))

    @property
    def l2(self) -> float:
        return l2_norm(self.values)

    @property
    def is_nonzero(self) -> bool:
        return self.l2 > 0.0


@dataclass(frozen=True)
class CoefficientVector:
    """Expansion coefficients of a signal in some orthonormal system."""

    system_id: str
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128).reshape(-1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def l1(self) -> float:
        return float(np.sum(np.abs(self.entries)))

    @property
    def l2(self) -> float:
        return l2_norm(self.entries)

    @property
    def linf(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.entries.size else 0.0
