import numpy as np
import pytest

from fratio import harness, recovery
from fratio.harness import PhaseSweepConfig, run_phase_sweep


def grid_records(report, grid_index):
    trials = report.config.trials
    return report.records[grid_index * trials : (grid_index + 1) * trials]


def test_duplicate_p_values_aggregate_per_grid_point():
    report = run_phase_sweep(
        PhaseSweepConfig(system="dft:16", signal="sparse:1", p_values=(0.5, 0.5), trials=3)
    )
    assert [a["trials"] for a in report.aggregates] == [3, 3]
    for g, agg in enumerate(report.aggregates):
        here = grid_records(report, g)
        assert agg["success_rate"] == np.mean([r.success for r in here])
        assert agg["mean_relative_error"] == np.mean([r.relative_error for r in here])


def test_aggregates_report_convergence():
    report = run_phase_sweep(
        PhaseSweepConfig(system="dft:16", signal="sparse:2", p_values=(0.25, 1.0), trials=8, max_iterations=40)
    )
    for g, agg in enumerate(report.aggregates):
        here = grid_records(report, g)
        iterations = [r.iterations for r in here]
        assert agg["nonconverged"] == sum(not r.converged for r in here)
        assert agg["iterations_p50"] == np.percentile(iterations, 50)
        assert agg["iterations_p95"] == np.percentile(iterations, 95)
        assert agg["iterations_max"] == max(iterations)
        assert agg["max_relative_error"] == max(r.relative_error for r in here)
    assert report.aggregates[0]["nonconverged"] > 0
    assert report.aggregates[0]["iterations_max"] == 40


def test_sweep_needs_a_trial():
    with pytest.raises(ValueError):
        run_phase_sweep(PhaseSweepConfig(system="dft:16", trials=0))


def test_the_sweep_builds_its_trials_at_most_one_stack_ahead_of_the_solver(monkeypatch):
    rows = 3
    monkeypatch.setattr(recovery, "_STACK_ENTRIES", rows * 16)
    built, stacks = [0], []
    build, pack = harness.trial_inputs, recovery._pack

    def counted_build(*args):
        built[0] += 1
        assert built[0] - sum(stacks) <= rows
        return build(*args)

    def counted_pack(system, samples, ys):  # a stack solve starts by packing its rows
        stacks.append(len(samples))
        return pack(system, samples, ys)

    monkeypatch.setattr(harness, "trial_inputs", counted_build)
    monkeypatch.setattr(recovery, "_pack", counted_pack)
    report = run_phase_sweep(PhaseSweepConfig(system="dft:16", signal="sparse:1", p_values=(0.5, 1.0), trials=4))
    assert stacks == [3, 3, 2]
    assert built[0] == len(report.records) == 8
