"""Slicing along product decompositions and the localization inequality check.

For G = H (+) K the maximal slice ratio is bounded below by the global ratio
divided by sqrt(|K|).  The global ratio can be taken with respect to the full
transform on G or the row-wise partial transform (transform in the H variables
only); the report names which reading was used.

The slice transforms are the row-wise transform regrouped by slice, so a
check takes one row-wise transform (and one full transform for that reading)
and the slices' l1 norms in one reduction; no transform runs per slice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Signal
from .ratio import fourier_ratio


@dataclass(frozen=True)
class ProductDecomposition:
    """Split of the factor list into leading H-factors and trailing K-factors."""

    group: FiniteAbelianGroup
    h_count: int

    def __post_init__(self):
        d = len(self.group.factors)
        if not 1 <= self.h_count <= d - 1:
            raise ValueError(f"h_count must leave both parts nonempty (1..{d - 1})")

    @property
    def h_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(self.group.factors[: self.h_count])

    @property
    def k_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(self.group.factors[self.h_count :])

    @property
    def h_size(self) -> int:
        return self.h_group.size

    @property
    def k_size(self) -> int:
        return self.k_group.size


def slice_signal(f: Signal, d: ProductDecomposition) -> np.ndarray:
    """Array of shape (|K|, |H|) whose row k is the slice f_k(h) = f(h, k)."""
    if f.group != d.group:
        raise ValueError("signal group does not match the decomposition")
    return f.values.reshape(d.h_size, d.k_size).T.copy()


def reassemble(slices: np.ndarray, d: ProductDecomposition) -> Signal:
    slices = np.asarray(slices, dtype=np.complex128)
    if slices.shape != (d.k_size, d.h_size):
        raise ValueError(f"expected shape {(d.k_size, d.h_size)}, got {slices.shape}")
    return Signal(d.group, slices.T.reshape(-1))


def _full_transform(f: Signal) -> np.ndarray:
    return np.fft.fftn(f.values.reshape(f.group.shape), norm="ortho").reshape(-1)


def _rowwise_transform(f: Signal, d: ProductDecomposition) -> np.ndarray:
    if f.group != d.group:
        raise ValueError("signal group does not match the decomposition")
    shaped = f.values.reshape(f.group.shape)
    h_axes = tuple(range(d.h_count))
    return np.fft.fftn(shaped, axes=h_axes, norm="ortho").reshape(-1)


def _as_slices(rowwise: np.ndarray, d: ProductDecomposition) -> np.ndarray:
    """The row-wise transform regrouped by slice, C-contiguous, shape (|K|, |H|)."""
    return rowwise.reshape(d.h_size, d.k_size).T.copy()


def slice_transforms(f: Signal, d: ProductDecomposition) -> np.ndarray:
    """Per-slice character transforms on H, shape (|K|, |H|).

    Row k is the transform of the slice f_k: the row-wise transform of f,
    regrouped by slice.
    """
    return _as_slices(_rowwise_transform(f, d), d)


@dataclass(frozen=True)
class LocalizationReport:
    max_slice_fr: float
    global_fr: float
    lower_bound: float
    holds: bool
    achieving_k: int
    transform: str
    skipped_zero_slices: int


def localization_check(
    f: Signal, d: ProductDecomposition, transform: str = "rowwise", rel_tol: float = 1e-9
) -> LocalizationReport:
    """Check max_k FR_H(f_k) >= FR_G(f) / sqrt(|K|) for a nonzero signal.

    transform="rowwise" transforms in the H variables only, under which the
    global coefficient array coincides slice-by-slice with the f_k hats and
    the inequality holds unconditionally.  transform="full" uses the character
    transform on all of G; that reading is not universally valid (rows that
    are distinct pure characters violate it) but holds with equality for the
    row-delta family.  Identically-zero slices are skipped; their ratio is
    undefined and they can never be the maximizer.
    """
    if not f.is_nonzero:
        raise ValueError("localization check needs a nonzero signal")
    rowwise = _rowwise_transform(f, d)
    if transform == "full":
        global_coeffs = _full_transform(f)
    elif transform == "rowwise":
        global_coeffs = rowwise
    else:
        raise ValueError(f"unknown transform reading {transform!r}")
    global_fr = fourier_ratio(global_coeffs)
    hats = _as_slices(rowwise, d)
    # each row's l1 as fourier_ratio sums it (C-contiguous rows, pairwise sums)
    l1s = np.abs(hats).sum(axis=1)
    max_slice_fr = -np.inf
    achieving_k = -1
    skipped = 0
    for k in range(d.k_size):
        l2 = float(np.linalg.norm(hats[k]))
        if l2 == 0.0:
            skipped += 1
            continue
        fr_k = float(l1s[k]) / l2
        if fr_k > max_slice_fr:
            max_slice_fr = fr_k
            achieving_k = k
    lower_bound = global_fr / np.sqrt(d.k_size)
    holds = max_slice_fr >= lower_bound - rel_tol * global_fr
    return LocalizationReport(
        max_slice_fr=float(max_slice_fr),
        global_fr=float(global_fr),
        lower_bound=float(lower_bound),
        holds=bool(holds),
        achieving_k=achieving_k,
        transform=transform,
        skipped_zero_slices=skipped,
    )
