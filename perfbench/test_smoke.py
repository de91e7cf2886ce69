"""The benchmark's own tests; run with ``python -m pytest perfbench``.

The smoke mode runs every workload on tiny inputs through the same code as a
measured run, untraced and traced, so the harness cannot quietly stop working.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [row[:3] for row in PER_LAYER]
    assert set(EXACT_COUNTS) <= {row[0] for row in PER_LAYER}


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout


def test_smoke_runs_every_workload_correctly(smoke):
    summary = json.loads(smoke.strip().splitlines()[-1])
    assert summary["correct"]
    assert list(summary["workloads"]) == list(run.WORKLOADS)
    for entry in summary["workloads"].values():
        for side in ("untraced", "traced"):
            assert entry[side]["attempted"] >= 1 and entry[side]["failed"] == 0
        assert entry["exact_counts_repeat"]


def test_smoke_prints_every_metric_by_name(smoke):
    for name, _ in run.END_TO_END:
        if name not in ("p50_ms", "p90_ms"):
            assert f" {name} " in smoke
    for kind in ("sweep", "recover", "encode", "decode", "mse", "localize"):
        assert f" {kind}_p50_ms " in smoke
    for name, *_ in PER_LAYER:
        assert f" {name} " in smoke
    error_lines = [line for line in smoke.splitlines() if line.split()[1:2] == ["error_rate"]]
    assert len(error_lines) == 2 * len(run.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "codec", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
