"""The four benchmark workloads.

A workload turns the benchmark seed into a deterministic schedule of ops:
``Workload.op(i)`` builds op ``i`` and its inputs.  The first ``round_len``
ops form round 0; the exact counts are taken over one round.  An op is one
timed call into the library plus an untimed check of its output that calls
only public library functions.

The library entry points the ops call are names of this module, so that the
traced run can wrap them here, where they are called.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fratio.cli
from fratio import (
    Descriptor,
    ProductDecomposition,
    RecoveryConfig,
    bernoulli_sample,
    localization_check,
    parse_system,
    rd_decode,
    rd_encode,
    recover_l1,
    sq_mse,
)
from fratio.harness import derive_seed, success_threshold
from fratio.recovery import restrict
from fratio.signals import generate_signal

cli_main = fratio.cli.main

# Input sizes.  "full" is what the benchmark measures; "smoke" runs the same
# code on tiny inputs so the benchmark's own test stays fast.
SIZES = {
    "full": {
        "sweep": {"system": "dft:64", "signal": "sparse:3", "p": "0.25,0.5,0.75,1.0", "trials": 50},
        "recover": {
            "systems": ("dft:4096", "wht:12", "gabor:N=64,T=64", "haar:4096"),
            "signal": "sparse:10",
        },
        "codec": {"systems": ("dft:4096", "wht:12", "gabor:N=64,T=64", "haar:4096")},
        "mse": {"items": (("dft:16", 64), ("haar:16", 64), ("dft:256", 256), ("wht:8", 256)), "trials": 1000},
        "localize": {"items": (("dft:64x64", 1), ("dft:8x8x64", 2), ("dft:256x16", 1))},
    },
    "smoke": {
        "sweep": {"system": "dft:16", "signal": "sparse:2", "p": "0.25,1.0", "trials": 2},
        "recover": {"systems": ("dft:256", "wht:8", "gabor:N=64,T=4", "haar:256"), "signal": "sparse:2"},
        "codec": {"systems": ("dft:64", "wht:6", "gabor:N=8,T=8", "haar:64")},
        "mse": {"items": (("dft:8", 16), ("haar:8", 16), ("dft:16", 32), ("wht:3", 32)), "trials": 20},
        "localize": {"items": (("dft:4x4", 1), ("dft:2x2x4", 2), ("dft:8x2", 1))},
    },
}


@dataclass
class Outcome:
    """What the check of one op found: one reason per failed library op, and
    the op's contribution to the exact counts."""

    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    count: int = 1  # library ops this call performs: a sweep performs its trials


def _fail(outcome: Outcome, label: str, reason: str) -> None:
    outcome.failures.append(f"{label}: {reason}")


class SweepSmall:
    """The README phase sweep through ``fratio.cli.main``; one op is one trial."""

    name = "sweep-small"
    round_len = 1

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.cfg = SIZES[size]["sweep"]
        self.out = os.path.join(workdir, "sweep-report.json")

    def _argv(self, master: int, p: str, trials: int) -> list[str]:
        cfg = self.cfg
        return [
            "phase", "--system", cfg["system"], "--signal", cfg["signal"], "--p", p,
            "--trials", str(trials), "--jobs", "1", "--seed", str(master), "--out", self.out,
        ]

    def _op(self, index: int, argv: list[str], count: int) -> Op:
        label = f"{self.name}#{index}"

        def call():
            # the sweep reports its elapsed time on stderr
            with contextlib.redirect_stderr(io.StringIO()):
                return cli_main(argv)

        def check(rc) -> Outcome:
            outcome = Outcome()
            with open(self.out) as fh:
                report = json.load(fh)
            records = report["records"]
            if rc != 0 or len(records) != count:
                _fail(outcome, label, f"exit code {rc}, {len(records)} of {count} trial records")
            for r in records:
                # Below p = 0.5 a 3-sparse signal on 64 points is under the
                # sample-complexity threshold: a miss there is predicted.
                if r["p"] >= 0.5 and not (r["converged"] and r["success"]):
                    _fail(outcome, f"{label} p={r['p']} trial={r['trial']}",
                          f"converged={r['converged']} relative_error={r['relative_error']:.3g}")
            outcome.counts = {
                "harness.trials": len(records),
                "recovery.recoveries": len(records),
                "recovery.dr_iterations": sum(r["iterations"] for r in records),
                "recovery.nonconverged": sum(not r["converged"] for r in records),
                "recovery.successes": sum(bool(r["success"]) for r in records),
            }
            return outcome

        return Op("sweep", label, call, check, count)

    def op(self, i: int) -> Op:
        trials = self.cfg["trials"] * len(self.cfg["p"].split(","))
        return self._op(i, self._argv(derive_seed(self.seed, i), self.cfg["p"], self.cfg["trials"]), trials)

    def warmup(self) -> Op:
        return self._op(-1, self._argv(derive_seed(self.seed, -1), "1.0", 1), 1)


class Recover4k:
    """Single ``recover_l1`` calls, equal shares of the four systems; every
    fourth op per system has a noise radius."""

    name = "recover-4k"
    round_len = 16
    p = 0.5
    eps = 0.05

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.cfg = SIZES[size]["recover"]
        self.systems = [parse_system(spec) for spec in self.cfg["systems"]]

    def op(self, i: int) -> Op:
        system = self.systems[i % len(self.systems)]
        eps = self.eps if (i // len(self.systems)) % 4 == 3 else 0.0
        f = generate_signal(system, self.cfg["signal"], seed=derive_seed(self.seed, i, 0))
        sample = bernoulli_sample(system.group, self.p, derive_seed(self.seed, i, 1))
        y = restrict(f.values, sample)
        config = RecoveryConfig(fidelity_radius=eps * f.l2)
        label = f"{self.name}#{i} {system.system_id} eps={eps}"

        def check(result) -> Outcome:
            outcome = Outcome()
            slack = config.tolerance * max(1.0, float(np.linalg.norm(y)))
            threshold = success_threshold(eps)
            if not result.converged:
                _fail(outcome, label, f"did not converge in {result.iterations} iterations")
            elif result.fidelity_residual > config.fidelity_radius + slack:
                _fail(outcome, label, f"fidelity residual {result.fidelity_residual:.6g} above radius")
            # Haar's coherence puts p = 0.5 below its sample complexity, so a
            # large Haar error is predicted.
            elif system.label != "haar" and result.relative_error > threshold:
                _fail(outcome, label, f"relative error {result.relative_error:.3g} above {threshold:.3g}")
            outcome.counts = {
                "recovery.recoveries": 1,
                "recovery.dr_iterations": result.iterations,
                "recovery.nonconverged": int(not result.converged),
                "recovery.successes": int(result.relative_error <= threshold),
            }
            return outcome

        return Op("recover", label, lambda: recover_l1(system, sample, y, config, truth=f), check)

    def warmup(self) -> Op:
        return self.op(0)


class Codec:
    """Encode ops and decode ops over a fixed pool of 16 items, four per system:
    three sparse descriptors and one dense one."""

    name = "codec"
    items_per_system = 4
    sparse = ("sparse:3", 0.8)
    dense = ("random", 0.2)

    def __init__(self, seed: int, size: str, workdir: str):
        systems = [parse_system(spec) for spec in SIZES[size]["codec"]["systems"]]
        self.items = []
        for j in range(len(systems) * self.items_per_system):
            system = systems[j % len(systems)]
            spec, eps = self.dense if j // len(systems) == self.items_per_system - 1 else self.sparse
            f = generate_signal(system, spec, seed=derive_seed(seed, j))
            self.items.append((system, f, eps))
        self.round_len = 2 * len(self.items)
        self.latest: dict[int, bytes] = {}  # item -> stream of its latest encode
        self.verified: dict[int, bytes] = {}  # item -> stream checked by a full decode

    def op(self, i: int) -> Op:
        j = (i // 2) % len(self.items)
        system, f, eps = self.items[j]
        label = f"{self.name}#{i} item {j} {system.system_id} eps={eps}"
        if i % 2 == 0:
            return Op("encode", label, lambda: self._encode(system, f, eps), lambda out: self._check_encode(j, label, out))

        def check_decode(g) -> Outcome:
            outcome = Outcome()
            distortion = float(np.linalg.norm(g.values - f.values))
            if not distortion <= eps * f.l2 * (1.0 + 1e-9):
                _fail(outcome, label, f"distortion {distortion:.6g} above {eps} * ||f||_2")
            return outcome

        return Op("decode", label, lambda: rd_decode(self.latest[j]), check_decode)

    @staticmethod
    def _encode(system, f, eps):
        descriptor, account = rd_encode(system, f, eps)
        return descriptor, account, descriptor.serialize()

    def _check_encode(self, j: int, label: str, out) -> Outcome:
        descriptor, account, blob = out
        outcome = Outcome(counts={"descriptor_bits": 8 * len(blob), "codec.k_total": descriptor.k})
        self.latest[j] = blob
        if account.total != 8 * len(blob):
            _fail(outcome, label, f"bit account {account.total} != 8 * {len(blob)} bytes")
        if j in self.verified:
            # the encoder is deterministic: a stream equal to a verified one is correct
            if blob != self.verified[j]:
                _fail(outcome, label, "stream differs from the first encode of the same item")
            return outcome
        back = Descriptor.deserialize(blob)
        same = (
            (back.factors, back.label, back.k, back.coeff_l2, back.eps)
            == (descriptor.factors, descriptor.label, descriptor.k, descriptor.coeff_l2, descriptor.eps)
            and all(np.array_equal(getattr(back, a), getattr(descriptor, a)) for a in ("support", "q_re", "q_im"))
        )
        if same:
            self.verified[j] = blob
        else:
            _fail(outcome, label, "deserialize(serialize(d)) != d")
        return outcome

    def warmup(self) -> Op:
        return self.op(0)


class EstimateLocalize:
    """``sq_mse`` experiments and ``localization_check`` calls, both readings."""

    name = "estimate-localize"
    signals = ("random", "rowdelta:1")
    transforms = ("rowwise", "full")

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.trials = SIZES[size]["mse"]["trials"]
        self.mse = [(parse_system(spec), k) for spec, k in SIZES[size]["mse"]["items"]]
        self.localize = [
            (parse_system(spec), split, signal, transform)
            for spec, split in SIZES[size]["localize"]["items"]
            for signal in self.signals
            for transform in self.transforms
        ]
        self.round_len = len(self.mse) + len(self.localize)

    def op(self, i: int) -> Op:
        r = i % self.round_len
        if r < len(self.mse):
            system, k = self.mse[r]
            f = generate_signal(system, "rademacher", seed=derive_seed(self.seed, i, 0))
            seed = derive_seed(self.seed, i, 1)
            label = f"{self.name}#{i} sq_mse {system.system_id} k={k}"

            def check_mse(report) -> Outcome:
                outcome = Outcome(counts={"sqdim.trials": report.trials})
                if report.empirical_mse > report.bound + 4.0 * report.std_error:
                    _fail(outcome, label, f"empirical MSE {report.empirical_mse:.4g} above bound {report.bound:.4g}")
                return outcome

            return Op("mse", label, lambda: sq_mse(system, f, k=k, trials=self.trials, seed=seed), check_mse)

        system, split, signal, transform = self.localize[r - len(self.mse)]
        f = generate_signal(system, signal, seed=derive_seed(self.seed, i))
        d = ProductDecomposition(system.group, split)
        label = f"{self.name}#{i} localize {system.system_id} split={split} {signal} {transform}"

        def check_localize(report) -> Outcome:
            outcome = Outcome(counts={"localization.slices": d.k_size})
            # only the row-wise reading is guaranteed to hold
            if transform == "rowwise" and not report.holds:
                _fail(outcome, label, f"max slice ratio {report.max_slice_fr:.6g} below {report.lower_bound:.6g}")
            return outcome

        return Op("localize", label, lambda: localization_check(f, d, transform=transform), check_localize)

    def warmup(self) -> Op:
        return self.op(0)


WORKLOADS = {w.name: w for w in (SweepSmall, Recover4k, Codec, EstimateLocalize)}
