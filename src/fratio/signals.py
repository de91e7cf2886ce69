"""Deterministic signal generators and plain-text signal file I/O."""
from __future__ import annotations

import math

import numpy as np

from .groups import FiniteAbelianGroup, Signal, check_domain_size
from .ratio import harmonic_model
from .systems import OrthonormalSystem


def sparse_signal(system: OrthonormalSystem, s: int, seed: int) -> Signal:
    """Synthesize s unit-modulus random-phase spikes placed in the coefficient domain."""
    if not 1 <= s <= system.size:
        raise ValueError(f"sparsity must lie in 1..{system.size}, got {s}")
    rng = np.random.default_rng(seed)
    support = rng.choice(system.size, size=s, replace=False)
    entries = np.zeros(system.size, dtype=np.complex128)
    entries[support] = np.exp(2j * np.pi * rng.random(s))
    return system.synthesize(entries)


def harmonic_signal(system: OrthonormalSystem) -> Signal:
    return system.synthesize(harmonic_model(system.size))


def rademacher_signal(group: FiniteAbelianGroup, seed: int) -> Signal:
    rng = np.random.default_rng(seed)
    return Signal(group, rng.choice([-1.0, 1.0], size=group.size))


def random_signal(group: FiniteAbelianGroup, seed: int) -> Signal:
    """Standard complex Gaussian values; the generic test signal."""
    rng = np.random.default_rng(seed)
    return Signal(group, rng.standard_normal(group.size) + 1j * rng.standard_normal(group.size))


def row_delta_signal(group: FiniteAbelianGroup, g: np.ndarray, k0: int) -> Signal:
    """Signal supported on a single slice: f(h, k) = g(h) [k = k0].

    The leading factor(s) of the group form the slice domain H; the trailing
    factors index the slices.
    """
    g = np.asarray(g, dtype=np.complex128).reshape(-1)
    h_size = g.shape[0]
    if group.size % h_size != 0:
        raise ValueError("slice length does not divide the group size")
    k_size = group.size // h_size
    if not 0 <= k0 < k_size:
        raise ValueError(f"slice index must lie in 0..{k_size - 1}")
    values = np.zeros((h_size, k_size), dtype=np.complex128)
    values[:, k0] = g
    return Signal(group, values.reshape(-1))


def write_signal(path, f: Signal) -> None:
    """One header line with the factor list, then 'index real imag' rows."""
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in f.group.factors) + "\n")
        for i, v in enumerate(f.values):
            fh.write(f"{i} {float(v.real)!r} {float(v.imag)!r}\n")


def read_signal(path) -> Signal:
    """Read a file written by write_signal: every index of the domain exactly once, in any order.

    A row with an index outside the domain, a repeated index or a non-finite
    value is a ValueError that names its line; so is a header whose domain
    exceeds ``MAX_DOMAIN_SIZE``, before anything is allocated.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if not header:
            raise ValueError(f"{path}: missing factor header line")
        factors = tuple(int(n) for n in header)
        check_domain_size(factors)
        group = FiniteAbelianGroup(factors)
        values = np.zeros(group.size, dtype=np.complex128)
        line_of = {}  # index -> the line that gave it
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}, line {lineno}"
            try:
                idx, re, im = parts  # exactly three fields
                idx, re, im = int(idx), float(re), float(im)
            except ValueError:
                raise ValueError(f"{where}: malformed row {line!r}") from None
            if not 0 <= idx < group.size:
                raise ValueError(f"{where}: index {idx} outside 0..{group.size - 1}")
            if idx in line_of:
                raise ValueError(f"{where}: index {idx} repeats line {line_of[idx]}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"{where}: value {re} {im} is not finite")
            line_of[idx] = lineno
            values[idx] = re + 1j * im
        if len(line_of) != group.size:
            raise ValueError(f"{path}: expected {group.size} rows, found {len(line_of)}")
    return Signal(group, values)


def generate_signal(system: OrthonormalSystem, spec: str, seed: int = 0) -> Signal:
    """Build a signal from a spec string.

    Supported: "sparse:<s>", "harmonic", "rademacher", "rowdelta:<k0>",
    "random", "file:<path>".
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "sparse":
        return sparse_signal(system, int(arg), seed)
    if kind == "harmonic":
        return harmonic_signal(system)
    if kind == "rademacher":
        return rademacher_signal(system.group, seed)
    if kind == "random":
        return random_signal(system.group, seed)
    if kind == "rowdelta":
        k_size = system.group.factors[-1]
        h_size = system.group.size // k_size
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(h_size) + 1j * rng.standard_normal(h_size)
        return row_delta_signal(system.group, g, int(arg))
    if kind == "file":
        f = read_signal(arg)
        if f.group != system.group:
            raise ValueError(f"signal file group {f.group} does not match system group {system.group}")
        return f
    raise ValueError(f"unknown signal spec {spec!r}")
