"""Bad input to the CLI ends in one usage error: ``fratio <cmd>: error: ...``
on stderr, exit status 2 and no traceback.  That covers errors raised by a
subcommand (ValueError, MalformedStreamError, OSError) and a config file
that is not a JSON object of valid flag values."""
import json
import struct

import pytest

from fratio import parse_system
from fratio.cli import main
from fratio.codec import MAGIC, VERSION
from fratio.groups import Signal
from fratio.signals import generate_signal, write_signal
from fratio.systems import SYSTEMS


def usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def write_config(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestSubcommandErrors:
    def test_invalid_keep_probability(self, capsys):
        err = usage_error(capsys, ["recover", "--system", "dft:16", "--p", "0"])
        assert "fratio recover: error: keep probability must lie in (0, 1]" in err

    def test_a_split_of_a_one_factor_group(self, capsys):
        err = usage_error(capsys, ["localize", "--system", "dft:4", "--split", "1"])
        assert "fratio localize: error: a product decomposition needs at least two factors, but group 4 has 1" in err

    def test_missing_descriptor_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.frrd"
        err = usage_error(capsys, ["rdcodec", "decode", "--descriptor", str(missing)])
        assert "fratio rdcodec: error:" in err and "missing.frrd" in err

    def test_a_stream_whose_label_cannot_live_on_its_group(self, capsys, tmp_path):
        # dft:6's stream with the haar code byte: one 6-point factor, k = 0
        path = tmp_path / "haar6.frrd"
        path.write_bytes(MAGIC + bytes([VERSION, 1, 6, SYSTEMS["haar"].code, 0]) + struct.pack(">dd", 1.0, 0.2))
        err = usage_error(capsys, ["rdcodec", "decode", "--descriptor", str(path)])
        assert "fratio rdcodec: error: haar needs one factor of power-of-two length, got 6" in err

    def test_an_eps_too_small_for_exact_codes(self, capsys):
        err = usage_error(capsys, ["rdcodec", "roundtrip", "--system", "dft:16", "--signal", "random", "--eps", "1e-160"])
        assert "fratio rdcodec: error: eps=1e-160 is too small" in err

    def test_an_overflowing_sampling_estimate(self, capsys, tmp_path):
        f = generate_signal(parse_system("dft:16"), "random", seed=0)
        path = tmp_path / "huge.txt"
        write_signal(path, Signal(f.group, f.values * 1e306))
        argv = ["sqdim", "--system", "dft:16", "--r", "2.0", "--mse-k", "8", "--trials", "10", "--signal", f"file:{path}"]
        err = usage_error(capsys, argv)
        assert "fratio sqdim: error: a trial's weighted squared error is not finite" in err

    def test_missing_setting(self, capsys):
        assert "fratio fr: error: missing required setting 'system'" in usage_error(capsys, ["fr"])
        assert "fratio rdcodec: error: decode needs --descriptor" in usage_error(capsys, ["rdcodec", "decode"])

    def test_malformed_descriptor_stream(self, capsys, tmp_path):
        blob = tmp_path / "junk.frrd"
        blob.write_bytes(b"not a descriptor")
        assert "fratio rdcodec: error:" in usage_error(capsys, ["rdcodec", "decode", "--descriptor", str(blob)])

    @pytest.mark.parametrize(
        "r, message",
        [
            ("inf", "ratio bound r must be >= 1 and finite, got inf"),
            ("nan", "ratio bound r must be >= 1 and finite, got nan"),
            ("1e200", "the covering quantities overflow"),
        ],
    )
    def test_a_ratio_bound_out_of_range(self, capsys, r, message):
        err = usage_error(capsys, ["sqdim", "--system", "dft:16", "--r", r])
        assert f"fratio sqdim: error: {message}" in err


class TestStrictConfig:
    def test_a_list_is_not_a_config(self, capsys, tmp_path):
        err = usage_error(capsys, ["--config", write_config(tmp_path, [1]), "fr", "--system", "dft:8"])
        assert "fratio fr: error: config" in err and "must hold a JSON object" in err

    def test_unreadable_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{")
        assert "cannot read config" in usage_error(capsys, ["--config", str(path), "fr", "--system", "dft:8"])
        assert "cannot read config" in usage_error(capsys, ["--config", str(tmp_path / "none.json"), "fr"])

    def test_unknown_key(self, capsys, tmp_path):
        config = write_config(tmp_path, {"system": "dft:8", "colour": "red"})
        assert "fratio fr: error: config key 'colour'" in usage_error(capsys, ["--config", config, "fr"])

    def test_fractional_int_value(self, capsys, tmp_path):
        config = write_config(tmp_path, {"trials": 1.5})
        err = usage_error(capsys, ["--config", config, "sqdim", "--system", "dft:8", "--mse-k", "4"])
        assert "fratio sqdim: error: config key 'trials': invalid int value '1.5'" in err

    def test_value_outside_choices(self, capsys, tmp_path):
        config = write_config(tmp_path, {"system": "dft:8", "format": "xml"})
        assert "'format'" in usage_error(capsys, ["--config", config, "phase", "--trials", "1"])

    def test_null_value(self, capsys, tmp_path):
        config = write_config(tmp_path, {"system": "dft:8", "out": None})
        assert "'out'" in usage_error(capsys, ["--config", config, "fr"])

    def test_values_are_checked_by_the_running_subcommand(self, tmp_path):
        # phase's --p is a list and recover's a float: one config serves both
        config = write_config(tmp_path, {"system": "dft:16", "signal": "sparse:1", "p": 0.9, "trials": 2})
        recover, phase = tmp_path / "recover.json", tmp_path / "phase.json"
        assert main(["--config", config, "recover", "--out", str(recover)]) == 0
        assert main(["--config", config, "phase", "--out", str(phase)]) == 0
        assert json.loads(recover.read_text())["p"] == 0.9
        assert json.loads(phase.read_text())["config"]["p_values"] == [0.9]


class TestSignalFileHeader:
    @pytest.mark.parametrize("header", ["8.0", "0"])
    def test_a_refused_header_names_the_file(self, capsys, tmp_path, header):
        path = tmp_path / "f.txt"
        path.write_text(header + "\n")
        err = usage_error(capsys, ["fr", "--system", "dft:8", "--signal", f"file:{path}"])
        assert f"fratio fr: error: {path}, line 1: " in err
