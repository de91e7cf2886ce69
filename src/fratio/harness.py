"""Deterministic experiment orchestration: seed derivation, recovery trials,
and the phase sweep over (signal class, sampling rate) grids.

Per-trial seeds are derived with SHA-256 from (master seed, grid index, trial
index), so results do not depend on execution order.  The sweep builds its
trials lazily and streams them into the l1 stack loop,
``recovery._solve_stacks``, which solves them a stack at a time, so only its
records, a few hundred bytes per trial, grow with the number of trials.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .ratio import fourier_ratio, soft_sparsify
from .recovery import RecoveryConfig, _solve_stacks, bernoulli_sample, restrict
from .recovery import check_fidelity_radius, check_keep_probability
from .recovery import recover_l1  # noqa: F401  (perfbench's traced run wraps this name)
from .signals import generate_signal
from .systems import OrthonormalSystem, parse_system

DEFAULT_ERROR_CONSTANT = 11.47


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit seed from SHA-256 of the master seed and index path."""
    payload = ":".join(str(v) for v in (master, *indices)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def success_threshold(eps: float) -> float:
    return max(DEFAULT_ERROR_CONSTANT * eps, 1e-5)


@dataclass(frozen=True)
class PhaseSweepConfig:
    system: str
    signal: str = "sparse:3"
    p_values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    trials: int = 50
    master_seed: int = 0
    eps: float = 0.0
    max_iterations: int = RecoveryConfig.max_iterations
    step: float = RecoveryConfig.step
    tolerance: float = RecoveryConfig.tolerance
    threshold: float | None = None


@dataclass(frozen=True)
class TrialRecord:
    p: float
    trial: int
    seed: int
    relative_error: float
    iterations: int
    converged: bool
    success: bool


def trial_inputs(system: OrthonormalSystem, signal_spec: str, p: float, eps: float, seed: int) -> tuple:
    """The recovery trial recipe: the signal f and the sample set are drawn
    from seeds derived from ``seed``; returns f, the sample set, the sampled
    values and the fidelity radius eps * ||f||_2."""
    f = generate_signal(system, signal_spec, seed=derive_seed(seed, 0))
    sample = bernoulli_sample(system.group, p, derive_seed(seed, 1))
    return f, sample, restrict(f.values, sample), eps * f.l2


@dataclass(frozen=True)
class PhaseSweepReport:
    config: PhaseSweepConfig
    records: tuple[TrialRecord, ...]
    aggregates: tuple[dict, ...]
    code_version: str = __version__

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "records": [asdict(r) for r in self.records],
            "aggregates": list(self.aggregates),
            "code_version": self.code_version,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv_rows(self) -> list[str]:
        system = parse_system(self.config.system)
        header = "system,M,signal,p,trials,success_rate,mean_relative_error"
        rows = [header]
        for agg in self.aggregates:
            rows.append(
                f"{self.config.system},{system.size},{self.config.signal},"
                f"{agg['p']},{agg['trials']},{agg['success_rate']},{agg['mean_relative_error']}"
            )
        return rows


def run_phase_sweep(config: PhaseSweepConfig) -> PhaseSweepReport:
    if not config.p_values:
        raise ValueError("phase sweep needs at least one p value")
    for p in config.p_values:
        check_keep_probability(p)
    if config.trials < 1:
        raise ValueError("phase sweep needs at least one trial")
    check_fidelity_radius(config.eps)
    threshold = config.threshold if config.threshold is not None else success_threshold(config.eps)
    system = parse_system(config.system)
    grid = [
        (p, trial, derive_seed(config.master_seed, grid_index, trial))
        for grid_index, p in enumerate(config.p_values)
        for trial in range(config.trials)
    ]
    solver = RecoveryConfig(max_iterations=config.max_iterations, step=config.step, tolerance=config.tolerance)

    def problems():
        for p, _, seed in grid:
            f, sample, y, sigma = trial_inputs(system, config.signal, p, config.eps, seed)
            yield sample, y, sigma, f

    records = []
    for (p, trial, seed), result in zip(grid, _solve_stacks(system, solver, problems())):
        rel = result.relative_error if result.relative_error is not None else float("inf")
        records.append(
            TrialRecord(
                p=p,
                trial=trial,
                seed=seed,
                relative_error=rel,
                iterations=result.iterations,
                converged=result.converged,
                success=rel <= threshold,
            )
        )
    aggregates = []
    for grid_index, p in enumerate(config.p_values):
        here = records[grid_index * config.trials : (grid_index + 1) * config.trials]
        errors = np.array([r.relative_error for r in here])
        iterations = np.array([r.iterations for r in here])
        aggregates.append(
            {
                "p": p,
                "trials": len(here),
                "success_rate": float(np.mean([r.success for r in here])),
                "mean_relative_error": float(np.mean(errors)),
                "max_relative_error": float(np.max(errors)),
                "nonconverged": sum(not r.converged for r in here),
                "iterations_p50": float(np.percentile(iterations, 50)),
                "iterations_p95": float(np.percentile(iterations, 95)),
                "iterations_max": int(np.max(iterations)),
            }
        )
    return PhaseSweepReport(config=config, records=tuple(records), aggregates=tuple(aggregates))


def fr_report(system: OrthonormalSystem, f) -> dict:
    """FR of the coefficients plus sparsification summaries at eta = 0.1, 0.25 and 0.5."""
    c = system.analyze(f)
    out = {
        "system": system.system_id,
        "fr": fourier_ratio(c),
        "coefficient_l1": c.l1,
        "coefficient_l2": c.l2,
        "sparsify": [],
    }
    for eta in (0.1, 0.25, 0.5):
        res = soft_sparsify(c, eta)
        out["sparsify"].append({"eta": eta, "s": res.s, "tail_l2": res.tail_l2, "tail_l1": res.tail_l1})
    return out
