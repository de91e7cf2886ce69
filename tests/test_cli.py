import json
import warnings

import numpy as np
import pytest

from fratio import FiniteAbelianGroup, Signal, parse_system
from fratio.cli import main
from fratio.codec import rd_decode
from fratio.harness import trial_inputs
from fratio.recovery import RecoveryConfig, recover_l1
from fratio.signals import generate_signal, random_signal, read_signal, write_signal


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestSubcommands:
    def test_fr(self, tmp_path):
        payload = run_json(tmp_path, ["fr", "--system", "dft:64", "--signal", "harmonic"])
        assert payload["system"] == "dft:64"
        assert payload["fr"] > 1.0
        assert len(payload["sparsify"]) == 3

    def test_roundtrip_of_a_signal_whose_squares_overflow(self, tmp_path):
        # ||f||_2 is about 1e161: finite, though its sum of squares is not
        system = parse_system("dft:64")
        f = generate_signal(system, "random", seed=0)
        path = tmp_path / "huge.txt"
        write_signal(str(path), Signal(f.group, f.values * 1e160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = run_json(tmp_path, ["rdcodec", "roundtrip", "--system", "dft:64", "--signal", f"file:{path}"])
        assert payload["within_budget"]
        assert 0 < payload["relative_distortion"] <= payload["eps"]

    def test_recover(self, tmp_path):
        payload = run_json(
            tmp_path,
            ["recover", "--system", "dft:32", "--signal", "sparse:2", "--p", "0.8", "--seed", "1"],
        )
        assert payload["converged"]
        assert payload["relative_error"] < payload["success_threshold"]
        assert payload["boundedness"]["passes"]

    def test_phase_json_and_csv(self, tmp_path):
        args = [
            "phase", "--system", "dft:16", "--signal", "sparse:1",
            "--p", "0.5,1.0", "--trials", "5", "--seed", "2",
        ]
        payload = run_json(tmp_path, args)
        assert [a["p"] for a in payload["aggregates"]] == [0.5, 1.0]
        assert payload["aggregates"][-1]["success_rate"] == 1.0
        out = tmp_path / "sweep.csv"
        assert main([*args, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "system,M,signal,p,trials,success_rate,mean_relative_error"
        assert len(lines) == 3

    def test_localize(self, tmp_path):
        payload = run_json(
            tmp_path, ["localize", "--system", "dft:8x4", "--signal", "random", "--seed", "3"]
        )
        assert payload["holds"]
        assert payload["transform"] == "rowwise"

    def test_rdcodec_roundtrip_and_decode(self, tmp_path):
        blob = tmp_path / "descriptor.bin"
        payload = run_json(
            tmp_path,
            [
                "rdcodec", "roundtrip", "--system", "wht:5", "--signal", "random",
                "--eps", "0.2", "--seed", "4", "--descriptor", str(blob),
            ],
        )
        assert payload["within_budget"]
        assert payload["bytes"] == blob.stat().st_size
        decoded = run_json(
            tmp_path, ["rdcodec", "decode", "--descriptor", str(blob)], name="decode.json"
        )
        assert decoded["action"] == "decode"
        assert decoded["l2"] > 0.0

    def test_sqdim(self, tmp_path):
        payload = run_json(
            tmp_path,
            ["sqdim", "--system", "dft:16", "--r", "2.0", "--mse-k", "32", "--trials", "20"],
        )
        assert payload["covering_params"]["k"] == 1024
        assert payload["sq_dim_log2"] > 0
        assert payload["mse"]["empirical_mse"] >= 0.0

    def test_erasure(self, tmp_path):
        payload = run_json(
            tmp_path,
            ["erasure", "--N", "100", "--T", "10", "--theta", "0.05", "--E-max", "2",
             "--trials", "100", "--seed", "5"],
        )
        assert 0.0 <= payload["exact_prob"] <= 1.0

    def test_missing_system_errors(self):
        with pytest.raises(SystemExit):
            main(["fr"])


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        args = ["phase", "--system", "dft:16", "--signal", "sparse:1", "--p", "0.75",
                "--trials", "5", "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_report(self, tmp_path):
        base = ["phase", "--system", "dft:16", "--signal", "sparse:1", "--p", "0.5,1.0",
                "--trials", "4", "--seed", "8"]
        a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert main([*base, "--jobs", "1", "--out", str(a)]) == 0
        assert main([*base, "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"system": "dft:32", "signal": "sparse:2", "p": 0.9}))
        payload = run_json(tmp_path, ["--config", str(cfg), "recover", "--seed", "1"])
        assert payload["system"] == "dft:32"
        assert payload["p"] == 0.9
        override = run_json(
            tmp_path, ["--config", str(cfg), "recover", "--seed", "1", "--p", "1.0"],
            name="override.json",
        )
        assert override["p"] == 1.0
        assert override["relative_error"] < 1e-8


class TestSignalFiles:
    def test_roundtrip(self, tmp_path):
        f = random_signal(FiniteAbelianGroup((4, 3)), 9)
        path = tmp_path / "signal.txt"
        write_signal(path, f)
        back = read_signal(path)
        assert back.group == f.group
        assert np.array_equal(back.values, f.values)

    def test_file_spec_feeds_cli(self, tmp_path):
        f = random_signal(FiniteAbelianGroup((16,)), 10)
        path = tmp_path / "signal.txt"
        write_signal(path, f)
        payload = run_json(tmp_path, ["fr", "--system", "dft:16", "--signal", f"file:{path}"])
        assert payload["coefficient_l2"] == pytest.approx(f.l2)

    def test_recover_saves_the_recovered_signal(self, tmp_path):
        path = tmp_path / "recovered.txt"
        argv = ["recover", "--system", "dft:32", "--signal", "sparse:2", "--p", "0.8", "--eps", "0.05", "--seed", "1"]
        payload = run_json(tmp_path, [*argv, "--save-recovered", str(path)])
        assert payload["recovered_path"] == str(path)
        system = parse_system("dft:32")
        f, sample, y, sigma = trial_inputs(system, "sparse:2", 0.8, 0.05, 1)
        result = recover_l1(system, sample, y, RecoveryConfig(fidelity_radius=sigma), truth=f)
        saved = read_signal(path)
        assert saved.group == result.recovered.group
        assert saved.values.tobytes() == result.recovered.values.tobytes()

    def test_decode_saves_the_decoded_signal(self, tmp_path):
        blob, path = tmp_path / "descriptor.bin", tmp_path / "decoded.txt"
        encode = ["rdcodec", "encode", "--system", "gabor:N=8,T=4", "--signal", "random", "--seed", "6"]
        run_json(tmp_path, [*encode, "--descriptor", str(blob)])
        payload = run_json(tmp_path, ["rdcodec", "decode", "--descriptor", str(blob), "--save-decoded", str(path)])
        decoded = rd_decode(blob.read_bytes())
        saved = read_signal(path)
        assert saved.group == decoded.group and payload["group"] == str(decoded.group)
        assert saved.values.tobytes() == decoded.values.tobytes()

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0 1.0 0.0\n")
        with pytest.raises(ValueError):
            read_signal(path)


class TestSignalFileValidation:
    @pytest.mark.parametrize(
        "rows,line",
        [
            (["0 1.0 0.0", "0 2.0 0.0"], 3),  # duplicate index: entry 1 would stay zero
            (["0 1.0 0.0", "-1 2.0 0.0"], 3),  # negative index: would wrap to the last entry
            (["0 1.0 0.0", "2 2.0 0.0"], 3),  # past the end of the domain
            (["nan 1.0 0.0", "1 2.0 0.0"], 2),  # not an integer index
            (["0 1.0 0.0", "1 x 0.0"], 3),  # not a number
        ],
    )
    def test_bad_row_rejected_and_named(self, tmp_path, rows, line):
        path = tmp_path / "bad.txt"
        path.write_text("2\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=f"line {line}\\b"):
            read_signal(path)

    @pytest.mark.parametrize("value", ["nan 0.0", "inf 0.0", "0.0 -inf", "1e999 0.0"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"2\n0 1.0 0.0\n1 {value}\n")
        with pytest.raises(ValueError, match="line 3\\b.*finite"):
            read_signal(path)

    def test_rows_in_any_order_accepted(self, tmp_path):
        path = tmp_path / "shuffled.txt"
        path.write_text("3\n2 3.0 0.0\n\n0 1.0 -1.0\n1 2.0 0.5\n")
        f = read_signal(path)
        assert np.array_equal(f.values, [1.0 - 1.0j, 2.0 + 0.5j, 3.0])
