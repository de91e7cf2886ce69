#!/usr/bin/env python3
"""Benchmark of the fratio library and CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --smoke

One run starts the workload in fresh single-threaded Python processes (BLAS
and OpenMP pinned to one thread): with --trace 0, a few that only set up, for
the set-up time, then one that measures.  It prints the metrics by name, the
environment and the failing ops, and as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

--all runs every workload untraced and traced and checks that the exact
counts agree between the two runs.  --smoke does the same on tiny inputs;
the benchmark's own test runs it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402  (stdlib only; the library is not imported here)

WORKLOADS = ("sweep-small", "recover-4k", "codec", "estimate-localize")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 2  # set-up-only processes per untraced run; the measuring process adds one more sample
TIME_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
OP_NOUN = {"sweep": "sweeps", "recover": "recoveries", "encode": "encodes", "decode": "decodes",
           "mse": "sq_mse experiments", "localize": "localization checks"}


class RunError(Exception):
    pass


def _spawn(workload: str, seed: int, seconds: float, trace: int, size: str, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size, "--workdir", WORKDIR]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} worker did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict]:
    """Measure one workload; return (the result line, the full record)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [] if trace else [
        _spawn(workload, seed, seconds, trace, size, deadline, True) for _ in range(SETUP_PROBES)
    ]
    res = _spawn(workload, seed, seconds, trace, size, deadline, False)
    if trace:
        values = res["layers"]
        metrics = {name: {"value": values[name], "unit": LAYER_UNITS[name]} for name, *_ in PER_LAYER}
    else:
        setups.append(res)
        kinds = res["kinds"].values()
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": res["ops_per_s"],
            # one latency per workload: the geometric mean over its op kinds
            "p50_ms": _geomean(k["p50_ms"] for k in kinds),
            "p90_ms": _geomean(k["p90_ms"] for k in kinds),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    res["setup_samples"] = [{k: s[k] for k in ("setup_s", "setup_measured_s")} for s in setups]
    line = {
        "correct": res["failed"] == 0 and not res.get("flagged_counts"),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return line, res


def environment(seed: int, versions: dict) -> dict:
    def cache_kib(level: int):
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for entry in sorted(os.listdir(base)):
                with open(os.path.join(base, entry, "level")) as fh:
                    if int(fh.read()) != level:
                        continue
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
                return int(size[:-1]) * {"K": 1, "M": 1024}[size[-1]]
        except (OSError, ValueError, KeyError, IndexError):
            pass
        return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fratio")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "l2_kib": cache_kib(2),
        "l3_kib": cache_kib(3),
        **versions,
        "thread_pins": THREAD_PINS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def report(workload: str, trace: int, line: dict, res: dict) -> None:
    """Print every metric by name, with its unit and sample count, and the failing ops."""
    w = f"{workload:<18}"
    if trace:
        for name, unit, _, moves in PER_LAYER:
            print(f"{w}{name:<34}{res['layers'][name]:>14.6g} {unit:<6} should move: {moves}")
        print(f"{w}traced rounds: {res['rounds'] // 2}, spans: {res['spans']}, "
              f"flagged exact counts: {res['flagged_counts'] or 'none'}")
    else:
        m = line["metrics"]
        measured = statistics.median(s["setup_measured_s"] for s in res["setup_samples"])
        print(f"{w}{'setup_s':<18}{m['setup_s']['value']:>12.4f} s     n={len(res['setup_samples'])} set-ups"
              f"  (as measured {measured:.4f} s)")
        print(f"{w}{'ops_per_s':<18}{m['ops_per_s']['value']:>12.4f} 1/s   n={res['attempted']} ops")
        for kind, q in res["kinds"].items():
            noun, raw = OP_NOUN[kind], res["measured"][kind]
            print(f"{w}{kind + '_p50_ms':<18}{q['p50_ms']:>12.4f} ms    n={q['n']} {noun}"
                  f"  (as measured {raw['p50_ms']:.4f} ms)")
            note = "" if q["n"] >= 100 else ", fewer than 100 samples: the median stands in"
            print(f"{w}{kind + '_p90_ms':<18}{q['p90_ms']:>12.4f} ms    n={q['n']} {noun}"
                  f"  (as measured {raw['p90_ms']:.4f} ms{note})")
        if len(res["kinds"]) > 1:
            for name in ("p50_ms", "p90_ms"):
                print(f"{w}{name:<18}{m[name]['value']:>12.4f} ms    geometric mean over {', '.join(res['kinds'])}")
        print(f"{w}{'peak_rss_mb':<18}{m['peak_rss_mb']['value']:>12.2f} MB    n=1 process")
        if "descriptor_bits" in res["exact_counts"]:
            print(f"{w}{'descriptor_bits':<18}{res['exact_counts']['descriptor_bits']:>12d} bits  per round (exact)")
        print(f"{w}exact counts per round: {json.dumps(res['exact_counts'], sort_keys=True)}")
    rate = res["failed"] / res["attempted"]
    print(f"{w}{'error_rate':<18}{rate:>12.6f}       {res['failed']}/{res['attempted']} ops failed")
    for reason in res["failing"][:20]:
        print(f"{w}  failing op {reason}")
    if len(res["failing"]) > 20:
        print(f"{w}  ... and {len(res['failing']) - 20} more")


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> tuple[dict, dict]:
    line, res = run_workload(workload, seed, seconds, trace, size)
    env = environment(seed, res["versions"])
    print(f"{workload:<18}trace={trace} seconds={seconds} rounds={res['rounds']} env: {json.dumps(env)}")
    report(workload, trace, line, res)
    with open(os.path.join(WORKDIR, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"environment": env, "result": line, "detail": res}, fh, indent=1)
    return line, res


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload untraced then traced; the exact counts must agree between the two runs."""
    summary, ok = {}, True
    for workload in WORKLOADS:
        untraced, res0 = measure(workload, seed, seconds, 0, size)
        traced, res1 = measure(workload, seed, seconds, 1, size)
        differ = sorted(k for k in EXACT_COUNTS if k in res0["exact_counts"]
                        and res0["exact_counts"][k] != res1["exact_counts"][k])
        if differ:
            print(f"{workload:<18}exact counts differ between runs: {differ}")
        ok = ok and untraced["correct"] and traced["correct"] and not differ
        summary[workload] = {
            "untraced": {k: untraced[k] for k in ("correct", "attempted", "failed")},
            "traced": {k: traced[k] for k in ("correct", "attempted", "failed")},
            "exact_counts_repeat": not differ,
        }
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true", help="--all on tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fratio", "__init__.py")):
        print(f"no fratio sources under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.smoke:
            return run_all(args.seed, 0.2 if args.seconds is None else args.seconds, "smoke")
        if args.all:
            return run_all(args.seed, 10.0 if args.seconds is None else args.seconds, "full")
        if args.workload is None or args.seconds is None:
            parser.error("--workload and --seconds are required unless --all or --smoke is given")
        line, _ = measure(args.workload, args.seed, args.seconds, args.trace, "full")
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
