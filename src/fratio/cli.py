"""Command-line front end.

Subcommands: fr, recover, phase, localize, rdcodec, sqdim, erasure.
Reports are deterministic functions of the arguments: JSON, or CSV for the
phase sweep with --format csv (no other subcommand takes --format).  Every
subcommand takes --seed and --out; only phase, sqdim and erasure take
--trials, and only phase takes --jobs, which it ignores: the sweep runs in
one process, so its report is the same at every --jobs.  A JSON config file
may supply defaults; explicit flags win.  A bad flag, config value or input
is a usage error: ``fratio <cmd>: error: ...`` and exit 2.  A closed stdout
ends the command quietly with exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .codec import rd_decode, rd_encode
from .groups import l2_norm
from .harness import (
    PhaseSweepConfig,
    derive_seed,
    fr_report,
    run_phase_sweep,
    success_threshold,
    trial_inputs,
)
from .localization import ProductDecomposition, localization_check
from .recovery import RecoveryConfig, erasure_row_statistics, recover_l1
from .signals import generate_signal, write_signal
from .sqdim import covering_params, sq_dim_log2, sq_mse
from .systems import check_boundedness, parse_system


def _write(text: str, out: str | None) -> None:
    """The report to the --out file, or to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(payload: dict, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True), out)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)


def cmd_fr(args) -> None:
    system = parse_system(args.system)
    f = generate_signal(system, args.signal, seed=args.seed)
    _emit(fr_report(system, f), args.out)


def cmd_recover(args) -> None:
    system = parse_system(args.system)
    f, sample, y, sigma = trial_inputs(system, args.signal, args.p, args.eps, args.seed)
    config = RecoveryConfig(
        max_iterations=args.max_iterations,
        step=args.step,
        tolerance=args.tolerance,
        fidelity_radius=sigma,
    )
    result = recover_l1(system, sample, y, config, truth=f)
    payload = {
        "system": system.system_id,
        "p": args.p,
        "eps": args.eps,
        "samples": sample.count,
        "coefficient_l1": result.coefficient_l1,
        "fidelity_residual": result.fidelity_residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "tau": result.tau,
        "relative_error": result.relative_error,
        "success_threshold": success_threshold(args.eps),
        "boundedness": asdict(check_boundedness(system)),
    }
    if args.save_recovered:
        write_signal(args.save_recovered, result.recovered)
        payload["recovered_path"] = args.save_recovered
    _emit(payload, args.out)


def cmd_phase(args) -> None:
    config = PhaseSweepConfig(
        system=args.system,
        signal=args.signal,
        p_values=tuple(float(p) for p in args.p.split(",")),
        trials=args.trials,
        master_seed=args.seed,
        eps=args.eps,
        max_iterations=args.max_iterations,
    )
    start = time.perf_counter()
    report = run_phase_sweep(config)
    elapsed = time.perf_counter() - start
    _write("\n".join(report.to_csv_rows()) if args.format == "csv" else report.to_json(), args.out)
    print(f"phase sweep finished in {elapsed:.1f}s", file=sys.stderr)


def cmd_localize(args) -> None:
    system = parse_system(args.system)
    f = generate_signal(system, args.signal, seed=args.seed)
    d = ProductDecomposition(system.group, args.split)
    report = localization_check(f, d, transform=args.transform)
    _emit(asdict(report), args.out)


def cmd_rdcodec(args) -> None:
    if args.action in ("encode", "roundtrip"):
        system = parse_system(args.system)
        f = generate_signal(system, args.signal, seed=args.seed)
        descriptor, account = rd_encode(system, f, args.eps)
        blob = descriptor.serialize()
        if args.descriptor:
            with open(args.descriptor, "wb") as fh:
                fh.write(blob)
        payload = {
            "action": args.action,
            "system": system.system_id,
            "eps": args.eps,
            "k": descriptor.k,
            "bytes": len(blob),
            "bit_account": asdict(account),
        }
        if args.action == "roundtrip":
            decoded = rd_decode(blob)
            err = l2_norm(decoded.values - f.values)
            payload["distortion"] = err
            payload["relative_distortion"] = err / f.l2
            payload["within_budget"] = err <= args.eps * f.l2 * (1 + 1e-9)
        _emit(payload, args.out)
    else:
        with open(args.descriptor, "rb") as fh:
            blob = fh.read()
        decoded = rd_decode(blob)
        if args.save_decoded:
            write_signal(args.save_decoded, decoded)
        _emit({"action": "decode", "group": str(decoded.group), "l2": decoded.l2}, args.out)


def cmd_sqdim(args) -> None:
    system = parse_system(args.system)
    params = covering_params(system.size, system.tau, args.r)
    payload = {
        "system": system.system_id,
        "covering_params": asdict(params),
        "sq_dim_log2": sq_dim_log2(system.size, system.tau, args.r),
    }
    if args.mse_k:
        f = generate_signal(system, args.signal, seed=args.seed)
        report = sq_mse(system, f, k=args.mse_k, trials=args.trials, seed=derive_seed(args.seed, 1))
        payload["mse"] = asdict(report)
    _emit(payload, args.out)


def cmd_erasure(args) -> None:
    stats = erasure_row_statistics(args.N, args.T, args.theta, args.E_max, args.trials, args.seed)
    _emit(asdict(stats), args.out)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser; ``main`` applies a config file's defaults."""
    parser = argparse.ArgumentParser(prog="fratio")
    parser.add_argument("--config", default=None, help="JSON file with default argument values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fr", help="coefficient ratio and sparsification summary")
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default="harmonic")
    _add_common(p)
    p.set_defaults(func=cmd_fr)

    # recover runs one trial of the sweep's recipe, with the defaults of its config fields
    p = sub.add_parser("recover", help="single l1 recovery run")
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default=PhaseSweepConfig.signal)
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--eps", type=float, default=PhaseSweepConfig.eps)
    p.add_argument("--max-iterations", type=int, default=RecoveryConfig.max_iterations)
    p.add_argument("--step", type=float, default=RecoveryConfig.step)
    p.add_argument("--tolerance", type=float, default=RecoveryConfig.tolerance)
    p.add_argument("--save-recovered", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("phase", help="success-rate sweep over sampling rates")
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default=PhaseSweepConfig.signal)
    p.add_argument(
        "--p", default=",".join(map(str, PhaseSweepConfig.p_values)), help="comma-separated keep probabilities"
    )
    p.add_argument("--eps", type=float, default=PhaseSweepConfig.eps)
    p.add_argument("--max-iterations", type=int, default=PhaseSweepConfig.max_iterations)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--trials", type=int, default=PhaseSweepConfig.trials)
    p.add_argument("--jobs", type=int, default=1, help="ignored: the sweep runs in one process, a stack at a time")
    _add_common(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("localize", help="slice ratio inequality check")
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default="random")
    p.add_argument("--split", type=int, default=1, help="number of leading factors forming H")
    p.add_argument("--transform", choices=["rowwise", "full"], default="rowwise")
    _add_common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("rdcodec", help="descriptor codec: encode, decode, or roundtrip")
    p.add_argument("action", choices=["encode", "decode", "roundtrip"])
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default="harmonic")
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--descriptor", default=None, help="descriptor file to write/read")
    p.add_argument("--save-decoded", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_rdcodec)

    p = sub.add_parser("sqdim", help="covering parameters and dimension bound")
    p.add_argument("--system", default=None)
    p.add_argument("--signal", default="rademacher")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--mse-k", type=int, default=0, help="if > 0, run the MSE experiment with this k")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_sqdim)

    p = sub.add_parser("erasure", help="row-wise erasure statistics")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--E-max", type=int, default=None, dest="E_max")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_erasure)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _flags(child: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags of a subcommand by destination, without --help."""
    return {
        a.dest: a for a in child._actions if a.option_strings and not isinstance(a, argparse._HelpAction)
    }


def _read_config(parser: argparse.ArgumentParser, child: argparse.ArgumentParser, path: str) -> dict:
    """The config file as {destination: (key, value)}; any flaw is a usage error of ``child``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        child.error(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        child.error(f"config {path} must hold a JSON object, not {type(config).__name__}")
    known = set().union(*(_flags(sub) for sub in _subcommands(parser).values()))
    for key in config:
        if key.replace("-", "_") not in known:
            child.error(f"config key {key!r} is not a flag of any subcommand")
    return {key.replace("-", "_"): (key, value) for key, value in config.items()}


def _apply_config(child: argparse.ArgumentParser, config: dict) -> None:
    """Config values become the subcommand's defaults, each checked as its
    str() argv token by the flag's own type and choices; explicit flags still
    win because parse_args overwrites defaults."""
    flags = _flags(child)
    defaults = {}
    for dest, (key, value) in config.items():
        action = flags.get(dest)
        if action is None:
            continue  # a flag of another subcommand
        if value is None or isinstance(value, (list, dict)):
            child.error(f"config key {key!r}: {json.dumps(value)} is not a flag value")
        token = str(value)
        try:
            converted = action.type(token) if action.type else token
        except (TypeError, ValueError):
            child.error(f"config key {key!r}: invalid {action.type.__name__} value {token!r}")
        if action.choices is not None and converted not in action.choices:
            child.error(f"config key {key!r}: invalid choice {token!r} (choose from {', '.join(action.choices)})")
        defaults[dest] = converted
    child.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    child = _subcommands(parser)[args.command]
    if args.config:
        _apply_config(child, _read_config(parser, child, args.config))
        args, extra = parser.parse_known_args(argv)
    if extra:  # the subcommand's parser hands what it does not know back up here
        child.error(f"unrecognized arguments: {' '.join(extra)}")
    decode_only = args.command == "rdcodec" and args.action == "decode"
    for required in ("system", "N", "T", "theta", "E_max"):
        if required == "system" and decode_only:
            continue
        if hasattr(args, required) and getattr(args, required) is None:
            child.error(f"missing required setting {required!r} (flag or config file)")
    if decode_only and not args.descriptor:
        child.error("decode needs --descriptor")
    try:
        args.func(args)
        sys.stdout.flush()  # so a closed stdout surfaces here, not at exit
    except BrokenPipeError:  # the reader of stdout went away: not a usage error
        # the interpreter flushes stdout again at exit; send that to devnull
        # (the recipe in the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # MalformedStreamError is a ValueError
        child.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
