"""Estimator and localization reports, pinned bit for bit.

``data/pinned_sqdim.json`` holds ``MseReport`` and ``LocalizationReport``
fields (floats as ``float.hex``) written by the trial-at-a-time ``sq_mse`` and
the slice-at-a-time ``localization_check`` that preceded the stacked code:
all four systems, k > M, k = 1, trials = 1, non-uniform weightings and
coefficient vectors with zero entries; localization on dft:4x3x5 (both
splits), dft:8x8x64 (both splits), dft:256x16 and dft:64x64, for random and
row-delta signals, under both readings.  The stacked code must reproduce
every field exactly.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from fratio import FiniteAbelianGroup, parse_system, sqdim
from fratio.localization import ProductDecomposition, localization_check, slice_signal, slice_transforms
from fratio.signals import generate_signal
from fratio.sqdim import sq_mse

from conftest import complex_gaussian

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_sqdim.json").read_text())


def _fields(report) -> dict:
    return {key: (value.hex() if isinstance(value, float) else value) for key, value in vars(report).items()}


def _mse_inputs(case):
    system = parse_system(case["system"])
    f = generate_signal(system, case["signal"], seed=case["signal_seed"])
    dist = case["distribution"]
    if dist is not None:
        dist = np.array([float.fromhex(x) for x in dist])
    return system, f, dict(k=case["k"], trials=case["trials"], seed=case["seed"], distribution=dist)


@pytest.mark.parametrize("case", PINNED["sq_mse"], ids=lambda c: c["name"])
def test_sq_mse_report_is_pinned(case):
    system, f, kwargs = _mse_inputs(case)
    assert _fields(sq_mse(system, f, **kwargs)) == case["report"]


@pytest.mark.parametrize(
    "case", PINNED["localization"], ids=lambda c: f"{c['system']}-{c['split']}-{c['signal']}-{c['signal_seed']}-{c['transform']}"
)
def test_localization_report_is_pinned(case):
    system = parse_system(case["system"])
    f = generate_signal(system, case["signal"], seed=case["signal_seed"])
    report = localization_check(f, ProductDecomposition(system.group, case["split"]), transform=case["transform"])
    assert _fields(report) == case["report"]


@pytest.mark.parametrize("name", ["dft256_stacks", "nonuniform_gabor", "k_above_M", "haar16"])
@pytest.mark.parametrize("rows", ["one", "prime", "all"])
def test_sq_mse_does_not_depend_on_the_stack_size(monkeypatch, name, rows):
    case = next(c for c in PINNED["sq_mse"] if c["name"] == name)
    system, f, kwargs = _mse_inputs(case)
    width = max(system.size, kwargs["k"])
    cap = {"one": 1, "prime": 7 * width, "all": kwargs["trials"] * width}[rows]
    monkeypatch.setattr(sqdim, "_STACK_ENTRIES", cap)
    assert sqdim._stack_rows(system.size, kwargs["k"]) == {"one": 1, "prime": 7, "all": kwargs["trials"]}[rows]
    assert _fields(sq_mse(system, f, **kwargs)) == case["report"]


def _trial_loop_mse(system, f, k, trials, seed, distribution):
    """The estimator one trial at a time, as it was written before stacking."""
    g = system.analyze(f).entries
    probs = np.abs(g) / float(np.sum(np.abs(g)))
    amplitude = float(np.sum(np.abs(g))) / k
    unit = np.zeros(system.size, dtype=np.complex128)
    nonzero = np.flatnonzero(probs)
    unit[nonzero] = g[nonzero] / np.abs(g[nonzero])
    rng = np.random.default_rng(seed)
    per_trial = np.empty(trials)
    for t in range(trials):
        idx = rng.choice(system.size, size=k, p=probs)
        w = np.zeros(system.size, dtype=np.complex128)
        np.add.at(w, idx, unit[idx])
        P = system._synthesize_array(amplitude * w)
        per_trial[t] = float(np.sum(distribution * np.abs(f.values - P) ** 2))
    return per_trial


@pytest.mark.parametrize("spec,signal,k", [("dft:3x5", "random", 7), ("wht:5", "sparse:2", 40), ("gabor:N=6,T=2", "random", 3), ("haar:64", "rademacher", 100)])
def test_sq_mse_matches_trial_loop(monkeypatch, spec, signal, k):
    system = parse_system(spec)
    f = generate_signal(system, signal, seed=3)
    distribution = np.random.default_rng(4).random(system.size)
    distribution /= distribution.sum()
    per_trial = _trial_loop_mse(system, f, k, 45, 5, distribution)
    monkeypatch.setattr(sqdim, "_STACK_ENTRIES", 11 * max(system.size, k))
    report = sq_mse(system, f, k=k, trials=45, seed=5, distribution=distribution)
    assert report.empirical_mse == float(per_trial.mean())
    assert report.std_error == float(per_trial.std(ddof=1) / np.sqrt(45))


@pytest.mark.parametrize("factors,split", [((4, 3, 5), 1), ((4, 3, 5), 2), ((8, 8, 64), 2), ((6, 4), 1), ((2, 2, 3, 2), 3)])
def test_slice_transforms_equal_per_slice_transforms(factors, split):
    group = FiniteAbelianGroup(factors)
    d = ProductDecomposition(group, split)
    f = complex_gaussian(group, 5)
    slices = slice_signal(f, d)
    per_slice = np.stack([np.fft.fftn(s.reshape(d.h_group.shape), norm="ortho").reshape(-1) for s in slices])
    hats = slice_transforms(f, d)
    assert hats.flags.c_contiguous
    assert np.array_equal(hats, per_slice)


def test_slice_transforms_reject_another_group():
    d = ProductDecomposition(FiniteAbelianGroup((4, 3)), 1)
    f = complex_gaussian(FiniteAbelianGroup((3, 4)), 0)
    with pytest.raises(ValueError):
        slice_transforms(f, d)
    with pytest.raises(ValueError):
        localization_check(f, d)

