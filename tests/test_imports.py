"""Importing the library stays light: scipy.stats, which takes several times
longer to import than the rest of the library together and most of its
memory, is imported only by the erasure statistics."""
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import fratio, fratio.cli, sys; assert 'scipy.stats' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr

