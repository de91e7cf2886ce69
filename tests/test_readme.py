"""README's examples run as written.

Every ``fratio ...`` line of README's ``sh`` blocks runs, in order, through
``fratio.cli.main`` in a fresh working directory (so ``rdcodec decode`` reads
the stream the roundtrip before it wrote, and ``--config`` the file the
``echo`` line writes), and the library example runs with its output captured.
"""
import json
import re
import shlex
from pathlib import Path

import pytest

from fratio.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def _shell_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] in ("fratio", "echo"):
                commands.append(words)
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _shell_commands()
    assert sum(words[0] == "fratio" for words in commands) >= 9
    for words in commands:
        if words[0] == "echo":
            text, redirect, target = words[1:]
            assert redirect == ">"
            Path(target).write_text(text + "\n")
            continue
        assert main(words[1:]) == 0, words
        out = capsys.readouterr().out
        if "--out" not in words:
            json.loads(out)
    assert len(Path("sweep.csv").read_text().splitlines()) == 1 + 4  # a header, then one row per p


def test_readme_library_example_runs(capsys):
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4
    assert float(printed[0]) == pytest.approx(3**0.5)
