"""Run one workload in this process and print its measurements as one JSON line.

run.py starts this script with the thread pins and PYTHONPATH set, passing
the monotonic clock reading at which it started the process, so that set-up
time counts from interpreter start.

Untraced (--trace 0): set up, then run rounds of fresh ops (inputs derived
from the seed and the op index) until --seconds have passed, at a round
boundary, so every op kind keeps its share.  Traced (--trace 1): repeat
round 0, alternating untraced and traced rounds, and build the per-layer
metrics from the traced rounds' spans.

Times are corrected for host contention.  On a shared host the same code runs
up to 1.5x slower for stretches of seconds to minutes, which no amount of
averaging inside one run removes.  A fixed pure-Python probe is timed before
and after every op (its readings track the ops' slowdown within a few
percent); the op's time is scaled by PROBE_REF_S over the mean of
the two readings, which expresses it at the speed of a quiet host.  The
as-measured times are reported beside the corrected ones.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict


P90_MIN_SAMPLES = 100
PROBE_REF_S = 150e-6  # the probe on a quiet host: 2-vCPU Xeon (KVM), Python 3.11.7
# 4000 ints visited in shuffled order: a working set beyond L1, since code that
# misses L1 slows more under contention than code that fits in it
_SCATTERED = [random.Random(0).getrandbits(40) for _ in range(4000)]
random.Random(1).shuffle(_SCATTERED)


def _arithmetic() -> int:
    total = 0
    for i in range(1000):
        total += i * i
    return total


def _traverse() -> int:
    total = 0
    for value in _SCATTERED:
        total += value
    return total


def _fastest(kernel, runs: int) -> float:
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """Seconds taken by two fixed pure-Python kernels, each the fastest of a
    few runs: how fast the host runs this process at the moment."""
    return _fastest(_arithmetic, 10) + _fastest(_traverse, 5)


def _quantiles(samples: list[float]) -> dict:
    """Median and p90 in ms.  A p90 needs at least 100 samples; below that the
    median stands in for it."""
    ms = [1e3 * s for s in samples]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) >= P90_MIN_SAMPLES else p50
    return {"p50_ms": p50, "p90_ms": p90, "n": len(ms)}


class Tally:
    """Latencies per op kind, attempted and failed library ops, failure reasons."""

    def __init__(self):
        self.latency: dict[str, list[float]] = defaultdict(list)  # corrected for contention
        self.measured: dict[str, list[float]] = defaultdict(list)  # as measured
        self.attempted = 0
        self.failed = 0
        self.failing: list[str] = []
        self.last_probe = probe()

    def run(self, op, tracer=None, op_id=None) -> tuple[float, float, dict]:
        """Run one op, timed, then check its output.

        Returns the corrected time in seconds, the contention correction
        factor, and the op's exact counts."""
        before = self.last_probe
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception:  # a failed op is counted and reported, and the run goes on
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
        self.last_probe = probe()
        scale = PROBE_REF_S / ((before + self.last_probe) / 2)
        self.measured[op.kind].append(elapsed)
        self.latency[op.kind].append(elapsed * scale)
        self.attempted += op.count
        if error is None:
            try:
                outcome = op.check(out)
            except Exception:
                error = "check raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        if error is not None:
            self.failed += op.count
            self.failing.append(f"{op.label}: {error}")
            return elapsed * scale, scale, {}
        self.failed += len(outcome.failures)
        self.failing += outcome.failures
        return elapsed * scale, scale, outcome.counts


def run_round(ops, tally: Tally, tracer=None, first_id: int = 0) -> tuple[float, dict, dict]:
    """Run ops in order; return corrected busy seconds, summed exact counts,
    and the correction factor of each op id."""
    busy, counts, scales = 0.0, defaultdict(int), {}
    for j, op in enumerate(ops):
        elapsed, scales[first_id + j], op_counts = tally.run(op, tracer, first_id + j)
        busy += elapsed
        for key, value in op_counts.items():
            counts[key] += value
    return busy, dict(counts), scales


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    first_probe = probe()
    start = time.perf_counter()
    import fratio

    import_ms = 1e3 * (time.perf_counter() - start)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(fratio.__file__).startswith(src + os.sep):
        print(f"fratio was imported from {fratio.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    import workloads

    start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    round0 = [workload.op(i) for i in range(workload.round_len)]
    inputs_ms = 1e3 * (time.perf_counter() - start)
    warmup = workload.warmup()
    warmup.check(warmup.call())
    setup_measured = time.monotonic() - args.spawned_at
    tally = Tally()
    scale = PROBE_REF_S / ((first_probe + tally.last_probe) / 2)
    setup = {"setup_s": setup_measured * scale, "setup_measured_s": setup_measured}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    result = {
        **setup,
        "setup.import_ms": import_ms * scale,
        "setup.inputs_ms": inputs_ms * scale,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    n = workload.round_len
    began = time.monotonic()
    if args.trace == 0:
        ops, first, exact = round0, 0, None
        while True:
            _, counts, _ = run_round(ops, tally)
            exact = counts if exact is None else exact
            first += n
            if time.monotonic() - began >= args.seconds:
                break
            ops = [workload.op(first + j) for j in range(n)]
        busy = sum(sum(v) for v in tally.latency.values())
        result.update(
            rounds=first // n,
            exact_counts=exact,
            ops_per_s=tally.attempted / busy,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    else:
        tracer = tracing.Tracer(tracing.targets(workloads))
        encode_ops = sum(op.kind == "encode" for op in round0)
        busy, all_counts, per_round = {False: [], True: []}, [], []
        r = 0
        while True:
            traced = r % 2 == 1
            first_span = len(tracer.spans)
            if traced:
                tracer.install()
            try:
                elapsed, counts, scales = run_round(round0, tally, tracer if traced else None, r * n)
            finally:
                tracer.remove()
            busy[traced].append(elapsed)
            all_counts.append(counts)
            if traced:
                stats = tracing.span_stats(tracer.spans, first_span, scales)
                per_round.append(tracing.layer_metrics(stats, counts, encode_ops))
            r += 1
            if r % 2 == 0 and time.monotonic() - began >= args.seconds:
                break
        tracer.write(os.path.join(args.workdir, f"spans-{args.workload}-seed{args.seed}.tsv"))
        layers = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
        layers["setup.import_ms"] = result["setup.import_ms"]
        layers["setup.inputs_ms"] = result["setup.inputs_ms"]
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(busy[True]) / statistics.median(busy[False]) - 1.0)
        # an exact count must read the same in every round, traced or not
        flagged = sorted(
            {key for counts in all_counts for key in counts if counts.get(key) != all_counts[0].get(key)}
            | {key for key in tracing.EXACT_COUNTS if len({m[key] for m in per_round}) > 1}
        )
        result.update(
            rounds=r,
            exact_counts={key: layers[key] for key in tracing.EXACT_COUNTS},
            flagged_counts=flagged,
            layers=layers,
            spans=len(tracer.spans),
        )
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failing=tally.failing,
        kinds={kind: _quantiles(samples) for kind, samples in tally.latency.items()},
        measured={kind: _quantiles(samples) for kind, samples in tally.measured.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
