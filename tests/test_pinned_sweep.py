"""Recovery outputs pinned bit for bit.

``data/pinned_sweep.json`` was written by the Douglas-Rachford loop that
allocated every step's arrays and ran each step through the public
``project_fidelity`` and ``soft_threshold``.  It holds:

- the SHA-256 of ``PhaseSweepReport.to_json()`` for a dft:64 ``sparse:3``
  sweep (p = 0.25..1.0, 50 trials) whose stack reaches the 5000-iteration
  cap, for a 20-trial sweep that reaches a cap of 1000, and for small
  sweeps on dft:64, wht:6, gabor:N=8,T=8, haar:64 and dft:8x8 at eps 0 and
  0.05;
- ``recover_l1`` on all four systems at input scales 1 and 1e-3, with and
  without a fidelity radius: a digest of the recovered values, the
  iterations, the flag and ``float.hex`` of the three reported floats.

The current solver must reproduce every entry exactly, whatever its stack
size.  The reference loop below is the loop that wrote the records, so the
solver must also equal it on inputs that are not pinned.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fratio import Signal, parse_system, recovery, systems
from fratio.harness import PhaseSweepConfig, derive_seed, run_phase_sweep, trial_inputs
from fratio.recovery import (
    RecoveryConfig,
    RecoveryResult,
    bernoulli_sample,
    extend_by_zero,
    project_fidelity,
    recover_l1,
    recover_l1_batch,
    restrict,
    soft_threshold,
)
from fratio.signals import sparse_signal

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_sweep.json").read_text())
SWEEPS = {case["name"]: case for case in PINNED["sweeps"]}


def _sweep_report(case):
    config = PhaseSweepConfig(
        system=case["system"],
        signal=case["signal"],
        p_values=tuple(case["p_values"]),
        trials=case["trials"],
        master_seed=case["master_seed"],
        eps=case["eps"],
        max_iterations=case["max_iterations"],
    )
    return run_phase_sweep(config)


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def _result_fields(r: RecoveryResult) -> dict:
    return dict(
        values_sha256=hashlib.sha256(r.recovered.values.tobytes()).hexdigest(),
        iterations=r.iterations,
        converged=r.converged,
        coefficient_l1=r.coefficient_l1.hex(),
        fidelity_residual=r.fidelity_residual.hex(),
        relative_error=r.relative_error.hex(),
    )


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_report_is_pinned(name):
    report = _sweep_report(SWEEPS[name])
    assert _digest(report) == SWEEPS[name]["sha256"]
    if name.endswith("cap"):
        # the stack runs a row to its iteration cap, unconverged
        assert max(r.iterations for r in report.records) == SWEEPS[name]["max_iterations"]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize(
    "name", ["dft64-short-cap", "wht:6-eps0.0", "gabor:N=8,T=8-eps0.0", "haar:64-eps0.0", "dft:8x8-eps0.05"]
)
def test_sweep_report_does_not_depend_on_the_stack_size(monkeypatch, name, rows):
    case = SWEEPS[name]
    size = parse_system(case["system"]).size
    monkeypatch.setattr(recovery, "_STACK_ENTRIES", rows * size)
    assert _digest(_sweep_report(case)) == case["sha256"]


@pytest.mark.parametrize("case", PINNED["recover_l1"], ids=lambda c: c["name"])
def test_recover_l1_is_pinned(case):
    system = parse_system(case["system"])
    f, sample, y, sigma = trial_inputs(system, case["signal"], case["p"], case["eps"], case["seed"])
    scale = case["scale"]
    config = RecoveryConfig(max_iterations=case["max_iterations"], fidelity_radius=sigma * scale)
    result = recover_l1(system, sample, y * scale, config, truth=Signal(system.group, f.values * scale))
    assert _result_fields(result) == {key: case[key] for key in _result_fields(result)}


# ---------------------------------------------------------------------------
# The loop that wrote the records, copied verbatim (less its input checks and
# stack splitting) and run on the public step functions.


def _row_norms_reference(a):
    v = np.ascontiguousarray(a).view(np.float64)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _reference_batch(system, samples, ys, configs, truths):
    count = len(samples)
    max_iterations, step, tolerance = configs[0].max_iterations, configs[0].step, configs[0].tolerance
    mask = np.zeros((count, system.size), dtype=np.complex128)
    y_ext = np.zeros((count, system.size), dtype=np.complex128)
    for i, (sample, y) in enumerate(zip(samples, ys)):
        y = np.asarray(y, dtype=np.complex128)
        mask[i, sample.kept] = 1.0
        y_ext[i, sample.kept] = y
    sigma = np.array([cfg.fidelity_radius for cfg in configs])

    best = np.empty((count, system.size), dtype=np.complex128)
    iterations = np.full(count, max_iterations)
    converged = np.zeros(count, dtype=bool)
    rows, a_mask, a_y, a_sigma = np.arange(count), mask, y_ext, sigma
    z = system._analyze_array(y_ext)
    for it in range(1, max_iterations + 1):
        x = project_fidelity(system, z, a_mask, a_y, a_sigma)
        shrunk = soft_threshold(2.0 * x - z, step)
        z_next = z + shrunk - x
        delta = _row_norms_reference(z_next - z)
        z = z_next
        stopped = delta <= tolerance * np.maximum(1.0, _row_norms_reference(z))
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
        best[rows] = shrunk

    c_star = project_fidelity(system, best, mask, y_ext, sigma)
    recovered = system._synthesize_array(c_star)
    residual = _row_norms_reference(recovered * mask - y_ext)
    coefficient_l1 = np.abs(c_star).sum(axis=-1)
    err = _row_norms_reference(recovered - np.stack([t.values for t in truths]))
    rel_err = [float(e) / t.l2 for e, t in zip(err, truths)]
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


@pytest.mark.parametrize("spec", ["dft:64", "dft:4x8", "wht:5", "gabor:N=8,T=4", "haar:32"])
def test_solver_equals_the_reference_loop(spec):
    system = parse_system(spec)
    problems = []
    for i in range(9):
        f = sparse_signal(system, 2 + i % 2, derive_seed(21, i))
        # p = 1 rows fit their data exactly early on, so the projection sees
        # rows with a zero residual beside rows outside their ball
        sample = bernoulli_sample(system.group, (0.3, 0.6, 1.0)[i % 3], derive_seed(22, i))
        scale = (1.0, 1e-3, 10.0)[i // 3]
        eps = (0.0, 0.0, 0.1)[(i + i // 3) % 3]
        y = restrict(f.values, sample) * scale
        problems.append((sample, y, RecoveryConfig(max_iterations=200, fidelity_radius=eps * f.l2 * scale),
                         Signal(system.group, f.values * scale)))
    samples, ys, configs, truths = (list(col) for col in zip(*problems))
    got = recover_l1_batch(system, samples, ys, configs, truths)
    expected = _reference_batch(system, samples, ys, configs, truths)
    assert {r.converged for r in got} == {True, False}
    assert [_result_fields(r) for r in got] == [_result_fields(r) for r in expected]


# ---------------------------------------------------------------------------
# The public step functions as they were written, verbatim.


def _soft_threshold_reference(c, lam):
    v = np.asarray(c, dtype=np.complex128)
    mags = np.abs(v)
    scale = np.zeros_like(mags)
    np.divide(np.maximum(mags - lam, 0.0), mags, out=scale, where=mags > 0)
    return v * scale


def _project_fidelity_reference(system, c, sample, y, sigma):
    c = np.asarray(c, dtype=np.complex128)
    if not isinstance(sample, np.ndarray):
        y = np.asarray(y, dtype=np.complex128)
        sample, y = extend_by_zero(np.ones(sample.count), sample), extend_by_zero(y, sample)
    rho = system._synthesize_array(c)
    rho *= sample
    rho -= y
    norm_rho = _row_norms_reference(rho)
    over = norm_rho > sigma
    if not over.any():
        return c.copy()
    ratio = np.divide(sigma, norm_rho, out=np.ones_like(norm_rho), where=over)
    rho *= (1.0 - ratio)[..., None]
    return c - system._analyze_array(rho)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_soft_threshold_equals_the_reference(lam):
    rng = np.random.default_rng(23)
    v = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    v[0, :4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    v[1, :3] = [0.2, -0.3j, 1e-300]
    for arg in (v, v[1], v.real, list(v[2])):
        assert _same_bits(soft_threshold(arg, lam), _soft_threshold_reference(arg, lam))


@pytest.mark.parametrize("spec", ["dft:16", "dft:4x4", "wht:4", "gabor:N=4,T=4", "haar:16"])
def test_project_fidelity_equals_the_reference(spec):
    system = parse_system(spec)
    rng = np.random.default_rng(derive_seed(24, system.size))
    samples = [bernoulli_sample(system.group, p, derive_seed(25, i)) for i, p in enumerate((0.5, 1.0, 0.7, 0.4))]
    c = rng.standard_normal((4, system.size)) + 1j * rng.standard_normal((4, system.size))
    c[3, :5] = -0.0
    ys = [rng.standard_normal(s.count) + 1j * rng.standard_normal(s.count) for s in samples[:3]]
    # the last row fits its samples exactly: a zero residual
    ys.append(restrict(system._synthesize_array(c[3]), samples[3]))
    masks = np.stack([extend_by_zero(np.ones(s.count), s) for s in samples])
    y_ext = np.stack([extend_by_zero(y, s) for s, y in zip(samples, ys)])
    gaps = _row_norms_reference(system._synthesize_array(c) * masks - y_ext)
    assert gaps[3] == 0.0 and gaps[:3].min() > 0.0
    radii = (np.zeros(4), 0.5 * gaps, 2.0 * gaps, np.array([0.0, 2.0, 0.5, 0.0]) * gaps, 0.0, float(gaps.max()))
    for sigma in radii:
        for rows in (slice(None), slice(0, 3)):
            s = sigma if np.ndim(sigma) == 0 else sigma[rows]
            got = project_fidelity(system, c[rows], masks[rows], y_ext[rows], s)
            assert _same_bits(got, _project_fidelity_reference(system, c[rows], masks[rows], y_ext[rows], s))
            assert not np.shares_memory(got, c)
    for i, (sample, y) in enumerate(zip(samples, ys)):
        for sigma in (0.0, 0.5 * gaps[i], 2.0 * gaps[i]):
            got = project_fidelity(system, c[i], sample, y, sigma)
            assert _same_bits(got, _project_fidelity_reference(system, c[i], sample, y, sigma))


# ---------------------------------------------------------------------------
# The character and Gabor transforms call the FFT gufuncs directly where numpy
# has them, and np.fft where it has not; both must give np.fft's bits for
# every length, axis, stack shape and input dtype.


def _reference_transform(values, shape, inverse, axes):
    fft = np.fft.ifft if inverse else np.fft.fft
    shaped = values.reshape(values.shape[:-1] + shape)
    for axis in axes:
        shaped = fft(shaped, axis=axis, norm="ortho")
    return shaped.reshape(values.shape)


@pytest.mark.parametrize(
    "spec",
    [f"dft:{n}" for n in (1, 2, 3, 5, 7, 8, 12, 17, 64, 97, 128, 243, 4096)]
    + ["dft:4x8", "dft:3x5x2", "dft:16x16", "gabor:N=8,T=4", "gabor:N=5,T=3", "gabor:N=1,T=6"],
)
@pytest.mark.parametrize("gufunc", [True, False], ids=["gufunc", "numpy-fft"])
def test_transforms_give_the_bits_of_numpy_fft(monkeypatch, spec, gufunc):
    if not gufunc:
        monkeypatch.setattr(systems, "_pocketfft", None)
    system = parse_system(spec)
    if system.label == "gabor":
        shape, axes = (system.N, system.T), (-2,)
    else:
        shape = system.group.shape
        axes = tuple(range(-1, -len(shape) - 1, -1))
    rng = np.random.default_rng(system.size)
    m = system.size
    inputs = [
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
        rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m)),
        (rng.standard_normal((2, 3, m)) + 1j * rng.standard_normal((2, 3, m)))[:, ::2],  # not contiguous
        rng.standard_normal((2, m)),  # real
        (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))).astype(np.complex64),
    ]
    for values in inputs:
        for inverse, transform in ((False, system._analyze_array), (True, system._synthesize_array)):
            assert _same_bits(transform(values), _reference_transform(values, shape, inverse, axes))
