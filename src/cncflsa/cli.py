"""Command-line front end: denoising runs, fixture generation, parameter
checks, and RMSE sweep experiments with machine-readable output.

Signal files are plain text, one sample per line, written with 17 significant
digits so round-trips are lossless.  Denoise runs emit a JSON metadata
document next to the output signal; sweeps emit a CSV table.  Exit codes:
0 success (for check-convexity: convex), 1 nonconvex verdict, 2 input parse
error, 3 convexity violation without --allow-nonconvex, 4 invalid parameters
or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import prox as _prox
from .cnc import (
    MARGIN_TOL,
    METHODS,
    CncConfig,
    ConvexityError,
    convexity_margin,
    convexity_margin_params,
    method_params,
    solve,
)
from .penalties import KINDS, PenaltySpec
from .prox import _all_finite, _check_nonneg, soft_threshold, tvd
from .signalgen import (
    DEFAULT_BETA,
    NoiseSpec,
    PulseSpec,
    add_awgn,
    default_pulse_spec,
    generate_pulses,
    lambda0_grid,
    lambda1_heuristic,
    rmse,
)

EXIT_OK = 0
EXIT_NONCONVEX = 1
EXIT_PARSE = 2
EXIT_CONVEXITY = 3
EXIT_BADPARAM = 4


class SignalParseError(ValueError):
    """Input file could not be parsed as a signal."""


@dataclass
class RunRecord:
    """One denoising trial: full config snapshot plus its outcome.  The rmse
    and iteration count are reproducible from the snapshot alone."""

    method: str
    lambda0: float
    lambda1: float
    a0: float
    a1: float
    penalty: str
    sigma: float
    seed: int
    rmse: float
    iterations: int
    converged: bool


def read_signal(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise SignalParseError(f"cannot read {path}: {exc}") from exc
    values = []
    for i, ln in enumerate(lines):
        if not ln:
            continue
        try:
            values.append(float(ln))
        except ValueError as exc:
            raise SignalParseError(f"{path}:{i + 1}: not a number: {ln!r}") from exc
    if not values:
        raise SignalParseError(f"{path}: no samples found")
    out = np.asarray(values)
    if not _all_finite(out):
        raise SignalParseError(f"{path}: non-finite samples")
    return out


def write_signal(path, x):
    """Write x one sample per line, only once :func:`read_signal` would
    take it back: ValueError from ``prox.as_signal`` leaves path as it was."""
    x = _prox.as_signal(x)
    with open(path, "w", encoding="ascii") as fh:
        for v in x:
            fh.write(f"{v:.17g}\n")


@contextmanager
def _replacing(*paths):
    """Per-process temporaries for ``paths``, which the block writes and
    which are moved over them in order once it has written them all, so
    that a failed write changes none of them.  Removes what is left of the
    temporaries either way.  A directory in the way of any path fails
    before the block runs, since it would fail a move only after another
    had replaced its file."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
    tmps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _method_name(a0, a1):
    """Class of the solve by which penalty terms are non-convex, for the
    metadata.  It is not the requested --method, so it does not restate
    method_params: explicit --a0/--a1 and zero weights change the class
    (``tools/digest.py``'s --lambda0 0 denoise pins "l1")."""
    if a0 == 0.0 and a1 == 0.0:
        return "l1"
    if a1 == 0.0:
        return "mdfl"
    return "cnc"


def cmd_denoise(args):
    y = read_signal(args.input)
    a0, a1 = method_params(args.method, args.lambda0, args.lambda1, args.a0, args.a1)
    cfg = CncConfig(args.lambda0, args.lambda1, PenaltySpec(args.penalty, a0),
                    PenaltySpec(args.penalty, a1), max_iter=args.max_iter, tol=args.tol,
                    allow_nonconvex=args.allow_nonconvex)
    # Where F overflows, the solve still certifies; its history holds inf,
    # written as null below, so numpy's overflow warning tells nothing.
    with np.errstate(over="ignore"):
        result = solve(y, cfg)
    meta = {
        "method": _method_name(cfg.penalty0.a, cfg.penalty1.a),
        "lambda0": cfg.lambda0,
        "lambda1": cfg.lambda1,
        "a0": cfg.penalty0.a,
        "a1": cfg.penalty1.a,
        "penalty": args.penalty,
        "convexity_margin": convexity_margin(cfg),
        "iterations": result.iterations,
        "converged": result.converged,
        "certificate": result.certificate,
        "newton_steps": result.newton_steps,
        # The backend that ran, read at the call: the switch is prox._tvd_c.
        "tvd_backend": "python" if _prox._tvd_c is None else "c",
        "objective_history": [f if math.isfinite(f) else None
                              for f in result.objective_history.tolist()],
    }
    if args.reference is not None:
        meta["rmse"] = rmse(result.x, read_signal(args.reference))
    # Written only once the reference has been read and compared.
    with _replacing(args.output, args.output + ".json") as (signal_tmp, meta_tmp):
        write_signal(signal_tmp, result.x)
        with open(meta_tmp, "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=2, allow_nan=False)
            fh.write("\n")
    return EXIT_OK


def _parse_pulses(text):
    pulses = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad pulse {chunk!r}; expected start:width:amplitude")
        pulses.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return pulses


def cmd_generate(args):
    if args.default:
        spec = default_pulse_spec()
    else:
        if args.n is None or args.pulses is None:
            raise ValueError("either --default or both --n and --pulses are required")
        spec = PulseSpec(args.n, tuple(_parse_pulses(args.pulses)))
    x = generate_pulses(spec)
    x = add_awgn(x, NoiseSpec(args.sigma, args.seed))
    write_signal(args.output, x)
    return EXIT_OK


def cmd_check_convexity(args):
    for name in ("lambda0", "lambda1", "a0", "a1"):
        _check_nonneg(getattr(args, name), f"--{name}")
    margin = convexity_margin_params(args.lambda0, args.lambda1, args.a0, args.a1)
    convex = margin >= -MARGIN_TOL
    print(f"margin {margin:.12g}")
    print("CONVEX" if convex else "NONCONVEX")
    return EXIT_OK if convex else EXIT_NONCONVEX


def collect_run_records(method, noisy, clean, lam0, lam1, kind, sigma, base_seed, a0=None, *,
                        denoised=None, **options):
    """Run one method over the noisy realizations, one RunRecord per trial.
    The options go to CncConfig, built (so checked) for "l1" too.  An "l1"
    trial is fused_lasso_l1, soft_threshold(tvd(y, lam1), lam0), with the
    tvd of each realization taken from denoised when it is given."""
    a0, a1 = method_params(method, lam0, lam1, a0)
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind, a0), PenaltySpec(kind, a1), **options)
    if method == "l1" and denoised is None:
        denoised = [tvd(y, lam1) for y in noisy]
    records = []
    for t, y in enumerate(noisy):
        if method == "l1":
            x, iterations, converged = soft_threshold(denoised[t], lam0), 1, True
        else:
            result = solve(y, cfg)
            x, iterations, converged = result.x, result.iterations, result.converged
        records.append(RunRecord(
            method=method, lambda0=float(lam0), lambda1=float(lam1),
            a0=a0, a1=a1, penalty=kind, sigma=sigma, seed=base_seed + t,
            rmse=rmse(x, clean), iterations=iterations, converged=converged,
        ))
    return records


def _aggregate(records, axis, value):
    errs = [r.rmse for r in records]
    r0 = records[0]
    return {
        "method": r0.method, "axis": axis, "value": value,
        "lambda0": r0.lambda0, "a0": r0.a0, "a1": r0.a1,
        "mean_rmse": float(np.mean(errs)),
        "std_rmse": float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
        "trials": len(errs),
    }


def _noisy(clean, sigma, trials, base_seed):
    """The noise realizations of one sweep point: trial t uses seed base_seed + t."""
    return [add_awgn(clean, NoiseSpec(sigma, base_seed + t)) for t in range(trials)]


def _tune_lambda0(method, noisy, clean, sigma, beta, kind, base_seed, a0=None, **options):
    """Records of the lambda0 on the grid with the lowest mean RMSE over the
    noisy realizations.  With a0 given, only the lambda0 with
    a0*lambda0 <= 1 + MARGIN_TOL, which select_a1 accepts, are candidates.
    lambda1 is fixed, so the "l1" trials of every lambda0 share one tvd per
    realization."""
    n = clean.size
    lam1 = lambda1_heuristic(n, sigma, beta)
    denoised = [tvd(y, lam1) for y in noisy] if method == "l1" else None
    best = None
    for lam0 in lambda0_grid(n, sigma, beta):
        if a0 is not None and float(a0) * float(lam0) > 1.0 + MARGIN_TOL:
            continue
        records = collect_run_records(
            method, noisy, clean, lam0, lam1, kind, sigma, base_seed, a0, denoised=denoised,
            **options,
        )
        mean = float(np.mean([r.rmse for r in records]))
        if best is None or mean < best[0]:
            best = (mean, records)
    if best is None:
        raise ValueError(f"no feasible lambda0 in the grid for a0 = {a0}")
    return best[1]


def sweep_sigma(values, trials, base_seed, beta, kind, methods, **options):
    """RMSE vs noise level on the pulse fixture, lambda0 grid-tuned per
    method at each level.  Returns one aggregate row per (method, sigma);
    every method sees the same realizations of each level."""
    clean = generate_pulses(default_pulse_spec())
    noisy = [_noisy(clean, sigma, trials, base_seed) for sigma in values]
    return [_aggregate(_tune_lambda0(method, ys, clean, sigma, beta, kind, base_seed, **options),
                       "sigma", sigma)
            for method in methods for sigma, ys in zip(values, noisy)]


def sweep_a0(values, trials, base_seed, beta, kind, sigma, **options):
    """RMSE vs amplitude-penalty non-convexity a0, with a1 recomputed from
    the boundary rule at every point and lambda0 grid-tuned among the
    feasible candidates (a0*lambda0 <= 1)."""
    clean = generate_pulses(default_pulse_spec())
    noisy = _noisy(clean, sigma, trials, base_seed)
    return [_aggregate(_tune_lambda0("cnc", noisy, clean, sigma, beta, kind, base_seed, a0,
                                     **options), "a0", a0)
            for a0 in values]


def cmd_sweep(args):
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values must list at least one axis value")
    # None, the default, is every method on the sigma axis and cnc, the
    # only one that sweep_a0 runs, on the a0 axis.
    methods = list(METHODS) if args.axis == "sigma" else ["cnc"]
    if args.methods is not None:
        methods = [mth.strip() for mth in args.methods.split(",") if mth.strip()]
    if not methods:
        raise ValueError("--methods must list at least one method")
    if len(set(methods)) < len(methods):
        raise ValueError("--methods must list each method once")
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}; expected subset of {METHODS}")
    if args.axis == "a0" and methods != ["cnc"]:
        raise ValueError("the a0 axis sweeps cnc alone; --methods must be cnc or omitted")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    fields = ["method", "axis", "value", "lambda0", "a0", "a1",
              "mean_rmse", "std_rmse", "trials"]
    # Opened first, so that an unwritable path fails before any solve, and
    # moved over the output only once the sweep has succeeded.
    with _replacing(args.output) as (tmp,):
        with open(tmp, "w", newline="", encoding="ascii") as fh:
            t0 = time.perf_counter()
            if args.axis == "sigma":
                rows = sweep_sigma(values, args.trials, args.seed, args.beta,
                                   args.penalty, methods, tol=args.tol, max_iter=args.max_iter)
            else:
                rows = sweep_a0(values, args.trials, args.seed, args.beta,
                                args.penalty, args.sigma, tol=args.tol, max_iter=args.max_iter)
            elapsed = time.perf_counter() - t0
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow([row["method"], row["axis"]]
                                + [f"{row[f]:.17g}" for f in fields[2:-1]]
                                + [row["trials"]])
    print(f"wrote {len(rows)} rows to {args.output} ({elapsed:.1f}s)")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cncflsa",
        description="Sparse piecewise-constant denoising via the convexity-"
                    "constrained non-convex fused lasso.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise a signal file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--a0", type=float, default=None)
    p.add_argument("--a1", type=float, default=None)
    p.add_argument("--penalty", choices=KINDS, default="atan")
    p.add_argument("--method", choices=METHODS, default="cnc")
    p.add_argument("--tol", type=float, default=CncConfig.tol,
                   help="stop a solve once its certificate, the subgradient oracle of "
                        "the returned iterate, is at most this")
    p.add_argument("--max-iter", type=int, default=CncConfig.max_iter)
    p.add_argument("--allow-nonconvex", action="store_true")
    p.add_argument("--reference", default=None,
                   help="clean signal file; adds an rmse field to the metadata")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("generate", help="write a synthetic pulse signal")
    p.add_argument("--output", required=True)
    p.add_argument("--default", action="store_true",
                   help="use the built-in 300-sample five-pulse fixture")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--pulses", default=None,
                   help="comma-separated start:width:amplitude triples")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="RMSE sweep experiment, CSV output")
    p.add_argument("--axis", choices=("sigma", "a0"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--trials", type=int, default=15)
    p.add_argument("--methods", default=None,
                   help="comma-separated subset of l1,mdfl,cnc (default: all three; "
                        "the a0 axis takes cnc alone)")
    p.add_argument("--sigma", type=float, default=0.5,
                   help="noise level for the a0 axis")
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--penalty", choices=KINDS, default="atan")
    p.add_argument("--tol", type=float, default=CncConfig.tol,
                   help="stop a solve once its certificate, the subgradient oracle of "
                        "the returned iterate, is at most this")
    p.add_argument("--max-iter", type=int, default=CncConfig.max_iter)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-convexity", help="report the convexity margin")
    p.add_argument("--lambda0", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--a0", type=float, required=True)
    p.add_argument("--a1", type=float, required=True)
    p.set_defaults(func=cmd_check_convexity)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SignalParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvexityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVEXITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADPARAM


if __name__ == "__main__":
    sys.exit(main())
