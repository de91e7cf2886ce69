"""The benchmark harness still runs on today's library: one short traced
round of each workload, as ``perfbench/run.py`` starts it.  A traced worker
wraps every function its tracer names, so renaming one of them in ``src/``
fails here rather than only in the slower ``python -m pytest perfbench``."""
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["sweep-small", "recover-4k", "codec", "estimate-localize"])
def test_a_traced_smoke_round_runs_without_failures(tmp_path, workload):
    argv = [
        sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
        "--workload", workload, "--seed", "0", "--size", "smoke", "--trace", "1",
        "--seconds", "0.2", "--workdir", str(tmp_path), "--spawned-at", repr(time.monotonic()),
    ]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result.get("failures")
