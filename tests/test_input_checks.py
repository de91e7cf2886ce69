"""Outside input is checked before it costs anything: the one domain-size cap
(system specs, signal file headers, descriptor streams), flags that only the
subcommand reading them accepts, the covering-bound arguments, the solver
settings, sample sets, non-finite values, the erasure arguments, signal specs
and files, group indices and slice shapes."""
import math

import numpy as np
import pytest

from fratio import FiniteAbelianGroup, ProductDecomposition, Signal, groups, localization_check, make_dft, parse_system
from fratio.bitio import MalformedStreamError
from fratio.cli import main
from fratio.codec import Descriptor, rd_bit_bound, rd_bit_bound_gabor
from fratio.localization import reassemble
from fratio.recovery import (
    RecoveryConfig,
    bernoulli_sample,
    erasure_row_statistics,
    project_fidelity,
    sample_complexity,
    soft_threshold,
)
from fratio.signals import generate_signal, read_signal, row_delta_signal, sparse_signal, write_signal
from fratio.sqdim import covering_params, quantizer_deviation_bound, sq_dim_log2

_EMPTY = np.array([], dtype=np.int64)


@pytest.fixture
def cap_64(monkeypatch):
    # a small cap stands in for 2^24, so no test asks for a large allocation
    monkeypatch.setattr(groups, "MAX_DOMAIN_SIZE", 64)


class TestDomainCap:
    def test_the_cap_lives_in_groups(self):
        assert groups.MAX_DOMAIN_SIZE == 1 << 24

    @pytest.mark.parametrize("spec", ["dft:9x9", "dft:65", "wht:7", "gabor:N=9,T=9", "haar:128"])
    def test_system_spec_above_the_cap_is_refused(self, cap_64, spec):
        with pytest.raises(ValueError, match="cap"):
            parse_system(spec)

    @pytest.mark.parametrize("spec", ["dft:8x8", "dft:64", "wht:6", "gabor:N=8,T=8", "haar:64"])
    def test_system_spec_at_the_cap_is_built(self, cap_64, spec):
        assert parse_system(spec).size == 64

    def test_large_wht_order_is_refused(self):
        with pytest.raises(ValueError, match="cap"):
            parse_system("wht:100000")

    def test_signal_file_header_above_the_cap_is_refused_before_any_row(self, cap_64, tmp_path):
        path = tmp_path / "big.txt"
        rows = "".join(f"{i} 1.0 0.0\n" for i in range(81))
        path.write_text("9 9\n" + rows)
        with pytest.raises(ValueError, match="cap"):
            read_signal(path)
        path.write_text("9 9\n")
        with pytest.raises(ValueError, match="cap"):
            read_signal(path)

    def test_signal_file_at_the_cap_is_read(self, cap_64, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("8 8\n" + "".join(f"{i} 1.0 0.0\n" for i in range(64)))
        assert read_signal(path).group.size == 64

    def test_decoder_refuses_a_domain_above_the_cap(self, monkeypatch):
        blob = Descriptor((9, 9), "dft", 1.0, 0.2, _EMPTY, _EMPTY, _EMPTY).serialize()
        assert Descriptor.deserialize(blob).group.size == 81
        monkeypatch.setattr(groups, "MAX_DOMAIN_SIZE", 64)
        with pytest.raises(MalformedStreamError, match="cap"):
            Descriptor.deserialize(blob)

    def test_no_stream_is_written_above_the_cap(self, cap_64):
        with pytest.raises(ValueError, match="cap"):
            Descriptor((9, 9), "dft", 1.0, 0.2, _EMPTY, _EMPTY, _EMPTY)

    def test_check_stops_at_the_first_product_above_the_cap(self):
        def factors():
            yield 1 << 24
            yield 2
            raise AssertionError("read past the first product above the cap")

        with pytest.raises(ValueError, match="cap"):
            groups.check_domain_size(factors())
        groups.check_domain_size((1 << 12, 1 << 12))


class TestFormatFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fr", "--system", "dft:8"],
            ["recover", "--system", "dft:8"],
            ["localize", "--system", "dft:4x2"],
            ["rdcodec", "roundtrip", "--system", "dft:8"],
            ["sqdim", "--system", "dft:8"],
            ["erasure", "--N", "10", "--T", "2", "--theta", "0.05", "--E-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_only_phase_takes_format(self, capsys, argv, fmt):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--format", fmt])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format" in captured.err

    def test_phase_csv_goes_through_the_same_writer(self, capsys, tmp_path):
        argv = ["phase", "--system", "dft:8", "--p", "1.0", "--trials", "2", "--format", "csv"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert printed.splitlines()[0] == "system,M,signal,p,trials,success_rate,mean_relative_error"


class TestCoveringArgs:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1.0, 1.0), "M must be >= 1"),
            ((16, 0.2, 1.0), "tau cannot be below"),
            ((16, 0.25, 0.5), "r must be >= 1"),
            ((16, 0.25, math.nan), "r must be >= 1 and finite"),
            ((16, 0.25, math.inf), "r must be >= 1 and finite"),
            ((16, math.nan, 1.0), "tau cannot be below"),
            ((16, math.inf, 1.0), "tau cannot be below"),
            ((16, 0.25, 1e200), "the covering quantities overflow"),
        ],
    )
    def test_both_bounds_refuse_with_the_same_message(self, args, message):
        for bound in (covering_params, sq_dim_log2):
            with pytest.raises(ValueError, match=message):
                bound(*args)

    @pytest.mark.parametrize("k", [0, -1])
    def test_the_deviation_bound_refuses_k_below_1(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            quantizer_deviation_bound(covering_params(16, 0.25, 1.0), k)

    def test_both_bounds_accept_tau_at_its_floor(self):
        M = 16
        tau = M**-0.5
        assert covering_params(M, tau, 1.0).k == math.ceil(16**2 * M * tau**2)
        assert math.isfinite(sq_dim_log2(M, tau, 1.0))


class TestBoundArgs:
    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_a_non_finite_ratio_bound_is_refused(self, r):
        with pytest.raises(ValueError, match="r must be >= 1 and finite"):
            rd_bit_bound(r, 0.5, 64)
        with pytest.raises(ValueError, match="r must be >= 1 and finite"):
            sample_complexity(r, 0.5, 64, tau=0.125)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_a_non_finite_tau_is_refused(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            sample_complexity(2.0, 0.5, 64, tau=tau)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_a_non_finite_eps_is_refused(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            rd_bit_bound(2.0, eps, 64)

    def test_a_bound_past_float64_is_refused(self):
        # (r / eps) ** 2 raises OverflowError at r = 1e200; at 1e152 the power is
        # finite and the product overflows to inf
        with pytest.raises(ValueError, match="the bound overflows at r=1e\\+200"):
            sample_complexity(1e200, 0.5, 64, tau=0.125)
        for r in (1e200, 1e152):
            with pytest.raises(ValueError, match="the bound overflows"):
                rd_bit_bound(r, 0.5, 64)
            with pytest.raises(ValueError, match="the bound overflows"):
                rd_bit_bound_gabor(r, 0.5, 8, 8)


class TestSolverSettings:
    # the soft threshold divides in place where |z| > 0, which relies on a threshold >= 0
    @pytest.mark.parametrize("field", ["step", "tolerance", "fidelity_radius"])
    def test_nan_settings_are_refused(self, field):
        with pytest.raises(ValueError):
            RecoveryConfig(**{field: math.nan})

    def test_an_infinite_fidelity_radius_is_refused(self):
        with pytest.raises(ValueError, match="fidelity radius must be nonnegative and finite"):
            RecoveryConfig(fidelity_radius=math.inf)

    def test_zero_iterations_are_refused(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            RecoveryConfig(max_iterations=0)

    def test_nan_threshold_is_refused(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3, dtype=complex), math.nan)


_ARGV = {
    "fr": ["fr", "--system", "dft:8"],
    "recover": ["recover", "--system", "dft:8"],
    "localize": ["localize", "--system", "dft:4x2"],
    "rdcodec": ["rdcodec", "roundtrip", "--system", "dft:8"],
    "sqdim": ["sqdim", "--system", "dft:8"],
    "erasure": ["erasure", "--N", "10", "--T", "2", "--theta", "0.05", "--E-max", "2"],
}


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "command, flag",
        [(c, "--trials") for c in ("fr", "recover", "localize", "rdcodec")]
        + [(c, "--jobs") for c in ("fr", "recover", "localize", "rdcodec", "sqdim", "erasure")],
    )
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(_ARGV[command] + [flag, "3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag in captured.err
        assert f"fratio {command}: error: unrecognized arguments" in captured.err


class TestNonFiniteSignal:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("transform", ["rowwise", "full"])
    def test_localization_check_refuses_it(self, value, transform):
        group = FiniteAbelianGroup((4, 3))
        values = np.ones(12, dtype=np.complex128)
        values[5] = value
        with pytest.raises(ValueError, match="finite"):
            localization_check(Signal(group, values), ProductDecomposition(group, 1), transform=transform)


class TestSampleSetProjection:
    def _inputs(self):
        system = make_dft(FiniteAbelianGroup((4, 3)))
        rng = np.random.default_rng(9)
        c = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        return system, c

    def test_a_sample_on_another_group_is_refused(self):
        system, c = self._inputs()
        sample = bernoulli_sample(FiniteAbelianGroup((3, 4)), 0.5, 1)
        with pytest.raises(ValueError, match="does not match"):
            project_fidelity(system, c, sample, np.ones(sample.count), 0.0)

    def test_non_finite_sampled_values_are_refused(self):
        system, c = self._inputs()
        sample = bernoulli_sample(system.group, 0.5, 1)
        y = np.ones(sample.count, dtype=np.complex128)
        y[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            project_fidelity(system, c, sample, y, 0.0)

    def test_values_of_the_wrong_length_are_refused(self):
        system, c = self._inputs()
        sample = bernoulli_sample(system.group, 0.5, 1)
        with pytest.raises(ValueError, match="do not match"):
            project_fidelity(system, c, sample, np.ones(sample.count + 1), 0.0)


class TestErasureArgs:
    def test_e_max_below_1_is_refused(self):
        with pytest.raises(ValueError, match="E_max must be >= 1"):
            erasure_row_statistics(10, 2, 0.05, 0, 10, 0)

    @pytest.mark.parametrize("N, T, trials", [(0, 2, 10), (10, 0, 10), (10, 2, 0)])
    def test_counts_below_1_are_refused(self, N, T, trials):
        with pytest.raises(ValueError, match="N, T, trials must be >= 1"):
            erasure_row_statistics(N, T, 0.05, 2, trials, 0)


class TestSignalInputs:
    @pytest.mark.parametrize("s", [0, 17])
    def test_a_sparsity_outside_the_domain_is_refused(self, s):
        with pytest.raises(ValueError, match=f"sparsity must lie in 1..16, got {s}"):
            sparse_signal(make_dft(FiniteAbelianGroup((16,))), s, seed=0)

    def test_a_slice_length_that_does_not_divide_the_group_is_refused(self):
        with pytest.raises(ValueError, match="slice length does not divide the group size"):
            row_delta_signal(FiniteAbelianGroup((4, 3)), np.ones(5), 0)

    @pytest.mark.parametrize("k0", [-1, 3])
    def test_a_slice_index_outside_the_slices_is_refused(self, k0):
        with pytest.raises(ValueError, match=r"slice index must lie in 0\.\.2"):
            row_delta_signal(FiniteAbelianGroup((4, 3)), np.ones(4), k0)

    @pytest.mark.parametrize("text", ["", "\n0 1.0 0.0\n"])
    def test_a_file_without_a_header_line_is_refused(self, tmp_path, text):
        path = tmp_path / "headless.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="missing factor header line"):
            read_signal(path)

    def test_a_file_on_another_group_is_refused(self, tmp_path):
        path = tmp_path / "f16.txt"
        write_signal(path, Signal(FiniteAbelianGroup((16,)), np.ones(16)))
        with pytest.raises(ValueError, match="signal file group 16 does not match system group 4x4"):
            generate_signal(parse_system("dft:4x4"), f"file:{path}")

    def test_an_unknown_spec_is_refused(self):
        with pytest.raises(ValueError, match="unknown signal spec 'chirp:3'"):
            generate_signal(parse_system("dft:16"), "chirp:3")

    def test_values_of_the_wrong_length_are_refused(self):
        with pytest.raises(ValueError, match="expected 12 values, got 11"):
            Signal(FiniteAbelianGroup((4, 3)), np.ones(11))


class TestGroupIndices:
    @pytest.mark.parametrize("index", [-1, 12])
    def test_an_index_out_of_range_is_refused(self, index):
        with pytest.raises(ValueError, match=f"index {index} out of range for group of size 12"):
            FiniteAbelianGroup((4, 3)).index_to_tuple(index)

    @pytest.mark.parametrize("element", [(1,), (1, 2, 0)])
    def test_an_element_of_the_wrong_arity_is_refused(self, element):
        with pytest.raises(ValueError, match="element arity does not match the factor list"):
            FiniteAbelianGroup((4, 3)).tuple_to_index(element)


class TestLocalizationInputs:
    def test_slices_of_the_wrong_shape_are_refused(self):
        d = ProductDecomposition(FiniteAbelianGroup((4, 3)), 1)
        with pytest.raises(ValueError, match=r"expected shape \(3, 4\), got \(4, 3\)"):
            reassemble(np.ones((4, 3)), d)

    def test_an_unknown_transform_reading_is_refused(self):
        group = FiniteAbelianGroup((4, 3))
        with pytest.raises(ValueError, match="unknown transform reading 'columnwise'"):
            localization_check(Signal(group, np.ones(12)), ProductDecomposition(group, 1), transform="columnwise")
