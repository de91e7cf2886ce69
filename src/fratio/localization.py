"""Slicing along product decompositions and the localization inequality check.

For G = H (+) K the maximal slice ratio is bounded below by the global ratio
divided by sqrt(|K|).  The global ratio can be taken with respect to the full
transform on G or the row-wise partial transform (transform in the H variables
only); the report names which reading was used.

Both readings and the slice transforms come from ``CharacterSystem``: the
slice transforms are one stacked transform on H of the (|K|, |H|) slice array,
the row-wise transform is that array read in G order, and the full reading is
the transform on G.  The slices' l1 and l2 norms are stacked reductions; no
Python code runs per slice, but for a nonzero slice so much smaller than the
signal that its squares underflow, whose ratio is taken on its own scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Signal, _accurate_l2, _unit_scaled
from .ratio import fourier_ratio
from .systems import make_dft


@dataclass(frozen=True)
class ProductDecomposition:
    """Split of the factor list into leading H-factors and trailing K-factors."""

    group: FiniteAbelianGroup
    h_count: int

    def __post_init__(self):
        d = len(self.group.factors)
        if d < 2:
            raise ValueError(f"a product decomposition needs at least two factors, but group {self.group} has {d}")
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


def slice_transforms(f: Signal, d: ProductDecomposition) -> np.ndarray:
    """Per-slice character transforms on H, C-contiguous (|K|, |H|): row k transforms f_k."""
    return make_dft(d.h_group)._analyze_array(slice_signal(f, d))


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
    """Check max_k FR_H(f_k) >= FR_G(f) / sqrt(|K|) for a finite nonzero signal.

    transform="rowwise" transforms in the H variables only, under which the
    global coefficient array coincides slice-by-slice with the f_k hats and
    the inequality holds unconditionally.  transform="full" uses the character
    transform on all of G; that reading is not universally valid (rows that
    are distinct pure characters violate it) but holds with equality for the
    row-delta family.  Identically-zero slices are skipped; their ratio is
    undefined and they can never be the maximizer.
    """
    peak = np.abs(f.values.view(np.float64)).max()
    if not np.isfinite(peak):
        raise ValueError("localization check needs a finite signal")
    if peak == 0.0:
        raise ValueError("localization check needs a nonzero signal")
    if not 2.0**-400 <= peak <= 2.0**400:  # the same ratios, with no transform overflowing or underflowing
        f = Signal(f.group, _unit_scaled(f.values))
    hats = slice_transforms(f, d)
    if transform == "full":
        global_fr = fourier_ratio(make_dft(f.group)._analyze_array(f.values))
    elif transform == "rowwise":
        global_fr = fourier_ratio(hats.T)  # flattened in G order, as the row-wise transform
    else:
        raise ValueError(f"unknown transform reading {transform!r}")
    # each row's l1 as fourier_ratio sums it (C-contiguous rows, pairwise
    # sums) and its l2 as np.linalg.norm computes it, sqrt(re.re + im.im),
    # with each dot a (|K|, 1, |H|) @ (|K|, |H|, 1) matmul
    l1s = np.abs(hats).sum(axis=1)
    re, im = hats.real, hats.imag
    l2s = np.sqrt(np.matmul(re[:, None, :], re[:, :, None]) + np.matmul(im[:, None, :], im[:, :, None]))[:, 0, 0]
    accurate = _accurate_l2(l2s)
    # as in a strict > scan: a zero slice is skipped and the first maximum
    # wins; the slice holding the largest value of f is never zero
    ratios = np.divide(l1s, l2s, out=np.full(d.k_size, -np.inf), where=accurate)
    for k in np.flatnonzero(~accurate & (l1s > 0.0)):  # a slice far smaller than f: its squares underflow
        ratios[k] = fourier_ratio(hats[k])
    achieving_k = int(np.argmax(ratios))
    max_slice_fr = ratios[achieving_k]
    lower_bound = global_fr / np.sqrt(d.k_size)
    holds = max_slice_fr >= lower_bound - rel_tol * global_fr
    return LocalizationReport(
        max_slice_fr=float(max_slice_fr),
        global_fr=float(global_fr),
        lower_bound=float(lower_bound),
        holds=bool(holds),
        achieving_k=achieving_k,
        transform=transform,
        skipped_zero_slices=int(np.count_nonzero(l1s == 0.0)),
    )
