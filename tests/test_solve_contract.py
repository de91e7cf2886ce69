"""The contract of the l1 stack loop: one solver config per solve, inputs
checked where they enter (truths, the sweep's eps), each solver and sweep
default written once, and Anderson compaction without a second secant ring."""
import math

import numpy as np
import pytest

from fratio import parse_system, recovery
from fratio.cli import _flags, _subcommands, build_parser, main
from fratio.harness import PhaseSweepConfig, derive_seed, run_phase_sweep, trial_inputs
from fratio.recovery import RecoveryConfig, recover_l1, recover_l1_batch


def _trials(system, count):
    return [trial_inputs(system, "sparse:2", 0.75, 0.0, derive_seed(24, i)) for i in range(count)]


class TestTruths:
    """Truths are all None or all Signals on the system's group, or the solve
    is refused with a ValueError."""

    def setup_method(self):
        self.system = parse_system("dft:16")
        (self.f, self.sample, self.y, _), (self.g, self.other, self.z, _) = _trials(self.system, 2)

    def batch(self, truths):
        return recover_l1_batch(self.system, [self.sample, self.other], [self.y, self.z], truths=truths)

    @pytest.mark.parametrize("order", ["signal first", "none first"])
    def test_a_mix_of_signals_and_none_is_refused(self, order):
        truths = [self.f, None] if order == "signal first" else [None, self.g]
        with pytest.raises(ValueError, match="truths must be all None or all Signals"):
            self.batch(truths)

    def test_a_truth_on_another_group_is_refused(self):
        on_4x4 = trial_inputs(parse_system("dft:4x4"), "sparse:2", 0.75, 0.0, 1)[0]
        assert on_4x4.values.shape == self.f.values.shape
        with pytest.raises(ValueError, match="truths must be all None or all Signals"):
            self.batch([self.f, on_4x4])
        with pytest.raises(ValueError, match="truths must be all None or all Signals"):
            recover_l1(self.system, self.sample, self.y, truth=on_4x4)

    def test_a_truth_that_is_not_a_signal_is_refused(self):
        with pytest.raises(ValueError, match="truths must be all None or all Signals"):
            recover_l1(self.system, self.sample, self.y, truth=self.f.values)

    def test_all_none_and_all_signals_are_solved(self):
        assert [r.relative_error for r in self.batch([None, None])] == [None, None]
        assert all(r.relative_error < 1e-6 for r in self.batch([self.f, self.g]))


class TestSweepEps:
    @pytest.mark.parametrize("eps", [-0.1, math.nan, -math.inf, math.inf])
    def test_sweep_refuses_eps_before_it_solves(self, eps, monkeypatch):
        def no_solve(*args):
            raise AssertionError("nothing is solved before eps is checked")

        monkeypatch.setattr("fratio.harness._solve_stacks", no_solve)
        with pytest.raises(ValueError, match="fidelity radius must be nonnegative"):
            run_phase_sweep(PhaseSweepConfig(system="dft:16", trials=2, eps=eps))

    @pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
    def test_phase_cli_exits_2(self, eps, capsys):
        with pytest.raises(SystemExit) as info:
            main(["phase", "--system", "dft:16", "--trials", "2", "--eps", eps])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "fratio phase: error: fidelity radius must be nonnegative" in err
        assert "Traceback" not in err

    def test_recover_cli_refuses_an_infinite_eps(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["recover", "--system", "dft:16", "--eps", "inf"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert "fratio recover: error: fidelity radius must be nonnegative and finite" in err
        assert "Traceback" not in err and out == ""


def test_parser_defaults_are_the_config_fields():
    subcommands = _subcommands(build_parser())
    recover = {dest: action.default for dest, action in _flags(subcommands["recover"]).items()}
    phase = {dest: action.default for dest, action in _flags(subcommands["phase"]).items()}
    solver, sweep = RecoveryConfig(), PhaseSweepConfig(system="dft:16")
    for name in ("max_iterations", "step", "tolerance"):
        assert recover[name] == getattr(solver, name) == getattr(sweep, name)
    assert phase["max_iterations"] == sweep.max_iterations
    assert (recover["signal"], recover["eps"]) == (sweep.signal, sweep.eps)
    assert (phase["signal"], phase["eps"], phase["trials"], phase["jobs"]) == (
        sweep.signal, sweep.eps, sweep.trials, sweep.jobs
    )
    assert tuple(float(p) for p in phase["p"].split(",")) == sweep.p_values


def test_anderson_compaction_moves_the_ring_in_place():
    system = parse_system("dft:1024")
    _, samples, ys, radii = zip(*_trials(system, 4))
    mask, y_ext = recovery._pack(system, samples, ys)
    stack = recovery._AndersonStack(system, np.arange(4), mask, y_ext, np.array(radii),
                                    system._analyze_array(y_ext))
    for _ in range(3):
        stack.step(1.0, 1e-9)
    ring = stack.history.copy()
    stack.stopped[...] = [True, False, True, False]
    rest = stack.without_stopped()
    assert np.shares_memory(rest.history, stack.history)
    assert np.array_equal(rest.history, ring[:, [1, 3]])
    assert np.array_equal(rest.gram, stack.gram[[1, 3]])
    assert rest.rows.tolist() == [1, 3]


def test_a_nan_radius_from_an_infinite_eps_on_a_zero_signal_is_refused(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("16\n" + "".join(f"{i} 0 0\n" for i in range(16)))
    config = PhaseSweepConfig(system="dft:16", signal=f"file:{path}", p_values=(1.0,), trials=1, eps=math.inf)
    with pytest.raises(ValueError, match="fidelity radius must be nonnegative"):
        run_phase_sweep(config)


def test_a_nan_radius_from_an_overflowing_norm_is_refused_before_any_solve(tmp_path, monkeypatch):
    # ||f||_2 overflows to inf, so the radius eps * ||f||_2 at eps = 0 is NaN;
    # only the stack loop's own check sees it
    path = tmp_path / "huge.txt"
    path.write_text("16\n" + "".join(f"{i} {1.7e308 if i < 2 else 0} 0\n" for i in range(16)))

    def no_step(*args):
        raise AssertionError("nothing is solved before the radii are checked")

    monkeypatch.setattr(recovery._Stack, "step", no_step)
    config = PhaseSweepConfig(system="dft:16", signal=f"file:{path}", p_values=(1.0,), trials=1, eps=0.0)
    with pytest.raises(ValueError, match="fidelity radius must be nonnegative and finite"):
        run_phase_sweep(config)
