"""Orthonormal systems on finite abelian groups.

Each system is an analysis/synthesis pair with an incoherence constant
tau = max_{x,j} |phi_j(x)|.  Analysis computes <f, phi_j> with the inner
product sum_x f(x) conj(phi_j(x)); synthesis is the adjoint (exact inverse).
The character system uses the negative-exponent kernel on the analysis side,
so it coincides with the conventional orthonormal FFT.

Everything about a system lives on its class: its ``label`` in specs and
system ids, its ``code`` byte in descriptor streams, the parser of its spec
parameters (``_parse_params``) beside their writer (``_param_string``), and
the check, in its constructor, that it can live on a given group.  ``SYSTEMS``
lists the classes, so adding a system is one class and one name there.  A
code is never reused: FRRD version 1 streams carry it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .groups import CoefficientVector, FiniteAbelianGroup, Signal, check_domain_size

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2

try:
    # the gufuncs that np.fft.fft and np.fft.ifft call (numpy >= 2)
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:
    _pocketfft = None


def _ortho_fft(values: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    """``np.fft.fft`` (or ``ifft``) of ``values`` along ``axis`` with norm="ortho".

    For complex128 input this calls the transform's gufunc with the factor
    np.fft passes it, 1/sqrt(n), into an output laid out as np.fft lays it
    out, so the bits are the same.  It skips the wrapper's argument handling,
    which at M = 64 costs about three times the transform.
    """
    if _pocketfft is None or values.dtype != np.complex128:
        return (np.fft.ifft if inverse else np.fft.fft)(values, axis=axis, norm="ortho")
    transform = _pocketfft.ifft if inverse else _pocketfft.fft
    fct = 1.0 / math.sqrt(values.shape[axis])
    out = np.empty_like(values)
    if axis == -1:
        return transform(values, fct, out=out)
    return transform(values, fct, axes=[(axis,), (), (axis,)], out=out)


class OrthonormalSystem:
    """Analysis/synthesis pair over a fixed group, with incoherence constant tau."""

    label: str
    code: int  # the label's byte in descriptor streams

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group

    @staticmethod
    def _parse_params(params: str) -> Iterable[int]:
        """The cyclic factors that the spec parameters name, as ``_param_string`` writes them."""
        return (int(n) for n in params.split("x"))

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def system_id(self) -> str:
        return f"{self.label}:{self._param_string()}"

    def _param_string(self) -> str:
        return str(self.group)

    @property
    def tau(self) -> float:
        raise NotImplementedError

    # The array transforms take (..., M) arrays and act along the last axis,
    # so a stack of B problems is one call on a (B, M) array.
    def _analyze_array(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _synthesize_array(self, entries: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def analyze(self, f: Signal) -> CoefficientVector:
        if f.group != self.group:
            raise ValueError(f"signal on {f.group} does not match system on {self.group}")
        return CoefficientVector(self.system_id, self._analyze_array(f.values))

    def synthesize(self, c) -> Signal:
        entries = c.entries if isinstance(c, CoefficientVector) else np.asarray(c, dtype=np.complex128)
        if entries.shape[0] != self.size:
            raise ValueError(f"expected {self.size} coefficients, got {entries.shape[0]}")
        return Signal(self.group, self._synthesize_array(entries))

    def basis_matrix(self) -> np.ndarray:
        """Dense matrix Phi with Phi[x, j] = phi_j(x).  Intended for small groups."""
        return self._synthesize_array(np.eye(self.size, dtype=np.complex128)).T

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.system_id})"


class CharacterSystem(OrthonormalSystem):
    """Character basis phi_gamma(x) = M^{-1/2} exp(2 pi i <gamma, x>) on a product group."""

    label = "dft"
    code = 0

    @property
    def tau(self) -> float:
        return self.size ** -0.5

    def _analyze_array(self, values: np.ndarray) -> np.ndarray:
        return self._transform(values, inverse=False)

    def _synthesize_array(self, entries: np.ndarray) -> np.ndarray:
        return self._transform(entries, inverse=True)

    def _transform(self, values: np.ndarray, inverse: bool) -> np.ndarray:
        # one 1-D transform per factor, last factor first, as fftn does;
        # fftn's argument handling costs more than a small transform itself
        if len(self.group.shape) == 1:
            return _ortho_fft(values, -1, inverse)
        shaped = values.reshape(values.shape[:-1] + self.group.shape)
        for axis in range(-1, -len(self.group.shape) - 1, -1):
            shaped = _ortho_fft(shaped, axis, inverse)
        return shaped.reshape(values.shape)


class WalshHadamardSystem(CharacterSystem):
    """Walsh system on Z_2^n: entries (-1)^{<j, x>} / 2^{n/2}."""

    label = "wht"
    code = 1

    def __init__(self, group: FiniteAbelianGroup):
        if any(n != 2 for n in group.factors):
            raise ValueError("wht needs binary factors")
        super().__init__(group)
        self.n = len(group.factors)

    @staticmethod
    def _parse_params(params: str) -> Iterable[int]:
        return itertools.repeat(2, int(params))  # lazy: the cap check stops early

    def _param_string(self) -> str:
        return str(self.n)

    def _analyze_array(self, values: np.ndarray) -> np.ndarray:
        return self._butterfly(values)

    def _synthesize_array(self, entries: np.ndarray) -> np.ndarray:
        return self._butterfly(entries)

    def _butterfly(self, values: np.ndarray) -> np.ndarray:
        # the orthonormal length-2 DFT along each factor: (a0 + a1) r and
        # (a0 - a1) r with r = 1/sqrt 2, the same arithmetic as np.fft, so the
        # results agree bit for bit; forward and inverse coincide on Z_2.
        # Autosort layout: a stage pairs adjacent entries (the lowest index
        # bit) and writes the sums and differences to the two contiguous
        # halves of the other buffer, which moves that bit to the top.  So
        # stage k acts on the original bit k, stride 1 first (last factor
        # first, as in the character transform), and after n stages the bits
        # are back in order.  Every ufunc runs on long 1-D views, where the
        # strided stages ran thousands of short inner loops.  The input is only
        # read, and each call returns a fresh buffer (callers write into it).
        x = np.asarray(values, dtype=np.complex128)
        lead = x.shape[:-1]
        pair_shape = lead + (x.shape[-1] // 2, 2)
        buffers = [np.empty(lead + (2, pair_shape[-2]), dtype=np.complex128) for _ in range(min(self.n, 2))]
        # per buffer, the views a stage writes (sums, differences, float64
        # parts) and the views the next stage reads (even, odd entries)
        writes = [(b[..., 0, :], b[..., 1, :], b.view(np.float64)) for b in buffers]
        reads = [(p[..., 0], p[..., 1]) for p in (b.reshape(pair_shape) for b in buffers)]
        pairs = x.reshape(pair_shape)
        even, odd = pairs[..., 0], pairs[..., 1]
        for stage in range(self.n):
            sums, differences, parts = writes[stage % 2]
            np.add(even, odd, out=sums)
            np.subtract(even, odd, out=differences)
            np.multiply(parts, _INV_SQRT2, out=parts)
            even, odd = reads[stage % 2]
        return buffers[(self.n - 1) % 2].reshape(values.shape)


class GaborBlockSystem(OrthonormalSystem):
    """Block Gabor system on Z_N x Z_T: per-row modulations of the width-N window.

    Basis function indexed by (m, a) is supported on row a and carries the
    frequency-m character there, so analysis is the orthonormal DFT applied to
    each row independently.  tau = N^{-1/2}, which exceeds (NT)^{-1/2} when T > 1.
    """

    label = "gabor"
    code = 2

    def __init__(self, group: FiniteAbelianGroup):
        if len(group.factors) != 2:
            raise ValueError("gabor needs exactly two factors")
        super().__init__(group)
        self.N, self.T = group.factors

    @staticmethod
    def _parse_params(params: str) -> Iterable[int]:
        kv = dict(item.partition("=")[::2] for item in params.split(","))
        if sorted(kv) != ["N", "T"]:
            raise ValueError(f"gabor parameters are N=<int>,T=<int>, got {params!r}")
        return int(kv["N"]), int(kv["T"])

    def _param_string(self) -> str:
        return f"N={self.N},T={self.T}"

    @property
    def tau(self) -> float:
        return self.N ** -0.5

    def _analyze_array(self, values: np.ndarray) -> np.ndarray:
        lead = values.shape[:-1]
        shaped = values.reshape(lead + (self.N, self.T))
        return _ortho_fft(shaped, -2, inverse=False).reshape(values.shape)

    def _synthesize_array(self, entries: np.ndarray) -> np.ndarray:
        lead = entries.shape[:-1]
        shaped = entries.reshape(lead + (self.N, self.T))
        return _ortho_fft(shaped, -2, inverse=True).reshape(entries.shape)


class HaarSystem(OrthonormalSystem):
    """Orthonormal Haar system on Z_M, M a power of two.

    Coefficient 0 is the scaling function; coefficient 2^j + q is the wavelet
    at scale j (coarse to fine) and shift q.
    """

    label = "haar"
    code = 3

    def __init__(self, group: FiniteAbelianGroup):
        if len(group.factors) != 1 or group.size & (group.size - 1):
            raise ValueError(f"haar needs one factor of power-of-two length, got {group}")
        super().__init__(group)

    @staticmethod
    def _parse_params(params: str) -> Iterable[int]:
        return (int(params),)

    def _param_string(self) -> str:
        return str(self.size)

    @property
    def tau(self) -> float:
        M = self.size
        if M == 1:
            return 1.0
        n = M.bit_length() - 1
        # finest-scale wavelets have modulus 2^{(n-1)/2} / sqrt(M)
        finest = 2.0 ** ((n - 1) / 2.0) / math.sqrt(M)
        return max(M ** -0.5, finest)

    def _analyze_array(self, values: np.ndarray) -> np.ndarray:
        approx = values.astype(np.complex128)
        out = np.empty_like(approx)
        while approx.shape[-1] > 1:
            even, odd = approx[..., 0::2], approx[..., 1::2]
            half = approx.shape[-1] // 2
            np.subtract(even, odd, out=out[..., half : 2 * half])
            approx = even + odd
            approx /= _SQRT2
        # every detail is scaled once, so one pass over all of them does it
        out[..., 1:] /= _SQRT2
        out[..., 0] = approx[..., 0]
        return out

    def _synthesize_array(self, entries: np.ndarray) -> np.ndarray:
        approx = entries[..., :1].astype(np.complex128)
        half = 1
        while half < entries.shape[-1]:
            detail = entries[..., half : 2 * half]
            merged = np.empty(entries.shape[:-1] + (2 * half,), dtype=np.complex128)
            np.add(approx, detail, out=merged[..., 0::2])
            np.subtract(approx, detail, out=merged[..., 1::2])
            merged /= _SQRT2
            approx = merged
            half *= 2
        return approx


def make_dft(group: FiniteAbelianGroup) -> CharacterSystem:
    return CharacterSystem(group)


def make_wht(n: int) -> WalshHadamardSystem:
    return WalshHadamardSystem(FiniteAbelianGroup((2,) * int(n)))


def make_gabor_block(N: int, T: int) -> GaborBlockSystem:
    return GaborBlockSystem(FiniteAbelianGroup((N, T)))


def make_haar(M: int) -> HaarSystem:
    return HaarSystem(FiniteAbelianGroup((M,)))


@dataclass(frozen=True)
class BoundednessCheck:
    tau: float
    bound: float
    passes: bool


def check_boundedness(system: OrthonormalSystem) -> BoundednessCheck:
    """Check the incoherence hypothesis tau <= M^{-1/2} (up to float slack)."""
    bound = system.size ** -0.5
    tau = system.tau
    return BoundednessCheck(tau=tau, bound=bound, passes=tau <= bound * (1.0 + 1e-12))


# The one table of systems, by label; spec parsing and the descriptor codec read it.
SYSTEMS: dict[str, type[OrthonormalSystem]] = {
    cls.label: cls for cls in (CharacterSystem, WalshHadamardSystem, GaborBlockSystem, HaarSystem)
}


def _kind(label: str) -> type[OrthonormalSystem]:
    if label not in SYSTEMS:
        raise ValueError(f"unknown system label {label!r}")
    return SYSTEMS[label]


def parse_system(spec: str) -> OrthonormalSystem:
    """Build a system from a spec string: "dft:4x6", "wht:5", "gabor:N=16,T=8", "haar:64".

    A domain of more than ``MAX_DOMAIN_SIZE`` points is a ValueError.
    """
    label, _, params = spec.partition(":")
    label = label.strip().lower()
    params = params.strip()
    if not params:
        raise ValueError(f"system spec {spec!r} is missing parameters")
    kind = _kind(label)
    return kind(FiniteAbelianGroup(check_domain_size(kind._parse_params(params))))


def system_on_group(label: str, group: FiniteAbelianGroup) -> OrthonormalSystem:
    """The system with this label on this group; ValueError if it cannot live there."""
    return _kind(label)(group)
