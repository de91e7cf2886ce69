"""Span recording for the traced run, and the per-layer metrics built from it.

The tracer wraps library entry points by patching each name where it is
called, and records one span per call made during an op: name, start, end,
parent span, op id and a size (bytes or bits moved, where the table below
uses one).  Spans stay in memory; the worker writes them out when it ends.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

SYSTEM_LABELS = ("dft", "wht", "gabor", "haar")

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("cli.main_ms", "ms", "lower", "ops_per_s on sweep-small"),
    ("cli.self_ms", "ms", "lower", "ops_per_s on sweep-small"),
    ("harness.run_phase_sweep_ms", "ms", "lower", "ops_per_s on sweep-small"),
    ("harness.self_ms", "ms", "lower", "ops_per_s on sweep-small"),
    ("harness.trials", "count", "higher", "ops_per_s on sweep-small"),
    ("signals.generate_signal_calls", "count", "lower", "ops_per_s on sweep-small"),
    ("signals.generate_signal_ms", "ms", "lower", "ops_per_s on sweep-small"),
    ("recovery.recover_l1_calls", "count", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.recover_l1_ms", "ms", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.self_ms", "ms", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.us_per_iteration", "us", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.project_fidelity_calls", "count", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.project_fidelity_ms", "ms", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.soft_threshold_ms", "ms", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.bernoulli_sample_ms", "ms", "lower", "ops_per_s on sweep-small; little change to recover_p50_ms"),
    ("recovery.dr_iterations", "count", "lower", "ops_per_s, recover_p50_ms, recover_p90_ms, error_rate on sweep-small and recover-4k"),
    ("recovery.nonconverged", "count", "lower", "ops_per_s, recover_p50_ms, recover_p90_ms, error_rate on sweep-small and recover-4k"),
    ("recovery.success_rate", "ratio", "higher", "ops_per_s, recover_p50_ms, recover_p90_ms, error_rate on sweep-small and recover-4k"),
]
for _label in SYSTEM_LABELS:
    _moves = (
        "recover_p90_ms on recover-4k and mse_p50_ms on estimate-localize"
        if _label == "wht"
        else "recover_p50_ms on recover-4k; almost nothing on sweep-small"
    )
    PER_LAYER += [
        (f"systems.{_label}.analyze_calls", "count", "lower", _moves),
        (f"systems.{_label}.analyze_ms", "ms", "lower", _moves),
        (f"systems.{_label}.synthesize_calls", "count", "lower", _moves),
        (f"systems.{_label}.synthesize_ms", "ms", "lower", _moves),
        (f"systems.{_label}.bytes_computed", "bytes", "lower", _moves),
    ]
PER_LAYER += [
    ("ratio.soft_sparsify_calls", "count", "lower", "encode_p50_ms on codec"),
    ("ratio.soft_sparsify_ms", "ms", "lower", "encode_p50_ms on codec"),
    ("codec.rd_encode_ms", "ms", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.rd_encode_self_ms", "ms", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.rd_decode_ms", "ms", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.serialize_calls", "count", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.serialize_ms", "ms", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.deserialize_ms", "ms", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.serializations_per_encode", "ratio", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("codec.k_total", "count", "lower", "encode_p90_ms on codec; decode_* should not move"),
    ("descriptor_bits", "bits", "lower", "catches format bloat on codec"),
    ("bitio.bits_written", "bits", "lower", "encode_p90_ms and decode_p90_ms on codec"),
    ("bitio.ns_per_bit_written", "ns", "lower", "encode_p90_ms and decode_p90_ms on codec"),
    ("bitio.ns_per_bit_read", "ns", "lower", "encode_p90_ms and decode_p90_ms on codec"),
    ("sqdim.sq_mse_calls", "count", "lower", "mse_p50_ms on estimate-localize"),
    ("sqdim.sq_mse_ms", "ms", "lower", "mse_p50_ms on estimate-localize"),
    ("sqdim.trials", "count", "higher", "mse_p50_ms on estimate-localize"),
    ("sqdim.us_per_trial", "us", "lower", "mse_p50_ms on estimate-localize"),
    ("localization.check_calls", "count", "lower", "localize_p50_ms on estimate-localize"),
    ("localization.check_ms", "ms", "lower", "localize_p50_ms on estimate-localize"),
    ("localization.slices", "count", "higher", "localize_p50_ms on estimate-localize"),
    ("localization.us_per_slice", "us", "lower", "localize_p50_ms on estimate-localize"),
    ("setup.import_ms", "ms", "lower", "setup_s on every workload"),
    ("setup.inputs_ms", "ms", "lower", "setup_s on every workload"),
    ("trace.overhead_pct", "%", "lower", "none; the cost of tracing itself"),
]

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "recovery.dr_iterations",
    "recovery.nonconverged",
    "descriptor_bits",
    "codec.k_total",
    "codec.serializations_per_encode",
    "sqdim.trials",
    "localization.slices",
)

_MISSING = object()


def _nbytes(args, result) -> int:
    return args[1].nbytes + result.nbytes


def _bits_out(args, result) -> int:
    return 8 * len(result)


def _bits_in(args, result) -> int:
    return 8 * len(args[1])


def targets(workloads) -> list[tuple]:
    """(owner, attribute, span name, size function) for every traced entry point.

    Subclasses come before the classes they inherit from, so that each
    wrapper wraps the original method rather than another wrapper.
    """
    import fratio.cli
    import fratio.codec
    import fratio.harness
    import fratio.recovery
    from fratio import systems

    out = [
        (workloads, "cli_main", "cli.main", None),
        (workloads, "recover_l1", "recovery.recover_l1", None),
        (workloads, "rd_encode", "codec.rd_encode", None),
        (workloads, "rd_decode", "codec.rd_decode", None),
        (workloads, "sq_mse", "sqdim.sq_mse", None),
        (workloads, "localization_check", "localization.check", None),
        (fratio.cli, "run_phase_sweep", "harness.run_phase_sweep", None),
        (fratio.harness, "recover_l1", "recovery.recover_l1", None),
        (fratio.harness, "generate_signal", "signals.generate_signal", None),
        (fratio.harness, "bernoulli_sample", "recovery.bernoulli_sample", None),
        (fratio.recovery, "project_fidelity", "recovery.project_fidelity", None),
        (fratio.recovery, "soft_threshold", "recovery.soft_threshold", None),
        (fratio.codec, "soft_sparsify", "ratio.soft_sparsify", None),
        (fratio.codec.Descriptor, "serialize", "codec.serialize", _bits_out),
        (fratio.codec.Descriptor, "deserialize", "codec.deserialize", _bits_in),
    ]
    for cls in (systems.WalshHadamardSystem, systems.CharacterSystem, systems.GaborBlockSystem, systems.HaarSystem):
        out.append((cls, "_analyze_array", f"systems.{cls.label}.analyze", _nbytes))
        out.append((cls, "_synthesize_array", f"systems.{cls.label}.synthesize", _nbytes))
    return out


class Tracer:
    def __init__(self, targets: list[tuple]):
        self.targets = targets
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id, size]
        self.op: int | None = None  # id of the running op; calls outside ops are not recorded
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, size in self.targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, size))
            else:
                new = self._wrap(name, raw, size)
            self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tsize\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def span_stats(spans: list[list], first: int, scales: dict[int, float]) -> dict[str, list[float]]:
    """name -> [calls, total ns, self ns, size] over spans[first:].

    Self time is a span's duration minus the time its child spans cover;
    calls are single-threaded, so children never overlap.  Durations are
    multiplied by the contention correction of the op they belong to.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans[first:]:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for index in range(first, len(spans)):
        name, start, end, _, op, size = spans[index]
        entry = stats[name]
        entry[0] += 1
        entry[1] += (end - start) * scales[op]
        entry[2] += (end - start - child_ns[index]) * scales[op]
        entry[3] += size
    return stats


def layer_metrics(stats: dict[str, list[float]], counts: dict[str, int], encode_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced round; layers the round does not use read 0."""

    def calls(name):
        return stats[name][0] if name in stats else 0

    def ms(name, index=1):
        return stats[name][index] / 1e6 if name in stats else 0.0

    def size(name):
        return stats[name][3] if name in stats else 0

    def per(value, base):
        return value / base if base else 0.0

    m = {
        "cli.main_ms": ms("cli.main"),
        "cli.self_ms": ms("cli.main", 2),
        "harness.run_phase_sweep_ms": ms("harness.run_phase_sweep"),
        "harness.self_ms": ms("harness.run_phase_sweep", 2),
        "harness.trials": counts.get("harness.trials", 0),
        "signals.generate_signal_calls": calls("signals.generate_signal"),
        "signals.generate_signal_ms": ms("signals.generate_signal"),
        "recovery.recover_l1_calls": calls("recovery.recover_l1"),
        "recovery.recover_l1_ms": ms("recovery.recover_l1"),
        "recovery.self_ms": ms("recovery.recover_l1", 2),
        "recovery.us_per_iteration": per(1e3 * ms("recovery.recover_l1"), counts.get("recovery.dr_iterations", 0)),
        "recovery.project_fidelity_calls": calls("recovery.project_fidelity"),
        "recovery.project_fidelity_ms": ms("recovery.project_fidelity"),
        "recovery.soft_threshold_ms": ms("recovery.soft_threshold"),
        "recovery.bernoulli_sample_ms": ms("recovery.bernoulli_sample"),
        "recovery.dr_iterations": counts.get("recovery.dr_iterations", 0),
        "recovery.nonconverged": counts.get("recovery.nonconverged", 0),
        "recovery.success_rate": per(counts.get("recovery.successes", 0), counts.get("recovery.recoveries", 0)),
    }
    for label in SYSTEM_LABELS:
        analyze, synthesize = f"systems.{label}.analyze", f"systems.{label}.synthesize"
        m[f"{analyze}_calls"] = calls(analyze)
        m[f"{analyze}_ms"] = ms(analyze)
        m[f"{synthesize}_calls"] = calls(synthesize)
        m[f"{synthesize}_ms"] = ms(synthesize)
        m[f"systems.{label}.bytes_computed"] = size(analyze) + size(synthesize)
    bits_written, bits_read = size("codec.serialize"), size("codec.deserialize")
    trials, slices = counts.get("sqdim.trials", 0), counts.get("localization.slices", 0)
    m.update({
        "ratio.soft_sparsify_calls": calls("ratio.soft_sparsify"),
        "ratio.soft_sparsify_ms": ms("ratio.soft_sparsify"),
        "codec.rd_encode_ms": ms("codec.rd_encode"),
        "codec.rd_encode_self_ms": ms("codec.rd_encode", 2),
        "codec.rd_decode_ms": ms("codec.rd_decode"),
        "codec.serialize_calls": calls("codec.serialize"),
        "codec.serialize_ms": ms("codec.serialize"),
        "codec.deserialize_ms": ms("codec.deserialize"),
        "codec.serializations_per_encode": per(calls("codec.serialize"), encode_ops),
        "codec.k_total": counts.get("codec.k_total", 0),
        "descriptor_bits": counts.get("descriptor_bits", 0),
        "bitio.bits_written": bits_written,
        "bitio.ns_per_bit_written": per(1e6 * ms("codec.serialize"), bits_written),
        "bitio.ns_per_bit_read": per(1e6 * ms("codec.deserialize"), bits_read),
        "sqdim.sq_mse_calls": calls("sqdim.sq_mse"),
        "sqdim.sq_mse_ms": ms("sqdim.sq_mse"),
        "sqdim.trials": trials,
        "sqdim.us_per_trial": per(1e3 * ms("sqdim.sq_mse"), trials),
        "localization.check_calls": calls("localization.check"),
        "localization.check_ms": ms("localization.check"),
        "localization.slices": slices,
        "localization.us_per_slice": per(1e3 * ms("localization.check"), slices),
    })
    return m
