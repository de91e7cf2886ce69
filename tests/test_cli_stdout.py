"""A reader that closes stdout before the report is written ends the command
quietly: exit status 1 and no traceback, also not from the interpreter's
flush of stdout at exit."""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_a_closed_stdout_is_a_quiet_exit():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "fratio.cli", "localize", "--system", "dft:64x64", "--signal", "random", "--split", "1"]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 1
