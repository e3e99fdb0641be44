"""Per-layer timings of cncflsa, written to BENCH_<tag>.json.

Times each layer on fixed inputs and keeps the median and quartiles of its
repeats, in milliseconds per call:

- ``prox.tvd`` at N = 300, 3,000, 30,000 and 300,000;
- ``prox.as_signal``, the validation of every public function's input, at
  N = 300 and 30,000;
- ``prox.soft_threshold`` at N = 300 and 30,000;
- ``prox.fused_lasso_l1`` on the 300-sample fixture;
- a solve's starting point, ``fused_lasso_l1`` + ``cnc.objective`` +
  ``cnc.majorized_input``, at N = 300 and 30,000, and its penalty pieces
  at the start's iterate: ``PenaltySpec.value`` and
  ``PenaltySpec.residual_deriv`` (of penalty0), ``cnc.objective`` and
  ``cnc.majorized_input``;
- ``cnc.solve`` at N = 300 (the fixture) and 30,000, and ``signalgen.rmse``
  of each one's result against its input;
- with the compiled module, its whole MM loop at N = 300 and 30,000: a
  call of its ``mm_solve`` entry with the arguments that ``cnc.solve``
  passes it after the start;
- one polish at N = 300 and 30,000: ``cnc._polish``, the Python twin of
  the compiled polish (which has no entry of its own and shows in the loop
  rows), on the first iterate that the solve of the fixture, or of the
  fixture tiled to 30,000 samples, polishes (its first update's, which
  does not certify);
- the criterion-7 sweep (3 sigma x 3 methods x 20 lambda0 x 15 trials);
- ``python -m cncflsa.cli denoise`` on the 300-sample fixture, in a fresh
  interpreter.

The solve, loop and polish rows also print, and keep, the work they time:
kernel calls (a solve's start and its updates, a loop's updates), polishes
and Newton steps, for a solve or a loop how many solves stopped on a
polished iterate, and for a polish how many of its steps were merge
rounds.  Apart from the loop and the polish, which are private
(``mm_solve`` and ``cnc._polish``, with the arguments of ``cnc.solve``),
only public names are timed, so the script measures whichever version of
the package is on the import path.  Those arguments are private to a
version, so run each version's own script, each with its own label, to put
both into one file:

    PYTHONPATH=<parent checkout>/src python <parent checkout>/tools/bench_layers.py \
        --tag T --label parent --out-dir .
    PYTHONPATH=src python tools/bench_layers.py --tag T --label change

Each run appends a record to its label in BENCH_<tag>.json (in the
repository root unless --out-dir says otherwise) with nproc, the repeat
counts, the tvd backend and the numpy version.  A 2-core VM's speed drifts
by tens of percent between runs, so after every repeat the script reads the
benchmark's in-process gauge (``in_process`` of ``perfbench/gauge.py``, a
frozen pure-Python tvd), and each layer keeps the median of its readings
as ``gauge_ms``.  Its calibrated time is ``median_ms * GAUGE_NOMINAL_MS /
gauge_ms``: milliseconds at the speed where the gauge takes its nominal
time.  Alternate the labels over several runs; once both labels are present
the script prints, per layer, the median over each label's runs of their
medians, the raw ratio and the calibrated ratio (from the runs that carry
gauge readings), and marks the layer "unresolved" where the two ratios
point opposite ways (one above 1, the other below): the gauge's drift then
outweighs the change, and neither ratio can be cited.  BLAS and OpenMP are
pinned to one thread.
"""

from __future__ import annotations

import os

# Before numpy is imported, which is when BLAS reads these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from cncflsa import (
    KINDS,
    CncConfig,
    NoiseSpec,
    PenaltySpec,
    add_awgn,
    cli,
    default_pulse_spec,
    fused_lasso_l1,
    generate_pulses,
    lambda1_heuristic,
    majorized_input,
    objective,
    rmse,
    select_a1,
    solve,
    soft_threshold,
    tvd,
)
from cncflsa import cnc, prox

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gauge import Gauge, in_process  # noqa: E402

GAUGE_NOMINAL_MS = 12.0  # in_process at the speed the benchmark's in-process workloads assume
SIGMA = 0.5
SWEEP_SIGMAS = [0.25, 0.5, 1.0]
REPEATS = 15  # per layer; the criterion-7 sweep, at seconds a run, gets 5


def signal(n, seed=7):
    """The 300-sample pulse fixture tiled to n samples, plus seeded noise."""
    clean = np.resize(generate_pulses(default_pulse_spec()), n)
    return add_awgn(clean, NoiseSpec(SIGMA, seed))


def cnc_config(**kw):
    lam1 = lambda1_heuristic(300, SIGMA)
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    return CncConfig(lam0, lam1, PenaltySpec("atan", a0),
                     PenaltySpec("atan", select_a1(lam0, lam1, a0)), **kw)


def timed(fn, inner):
    """Milliseconds per call of fn, over `inner` back-to-back calls."""
    start = time.perf_counter_ns()
    for _ in range(inner):
        fn()
    return (time.perf_counter_ns() - start) / inner / 1e6


def summary(samples):
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": round(float(med), 5), "q1_ms": round(float(q1), 5),
            "q3_ms": round(float(q3), 5), "repeats": len(samples)}


def solve_start(y, cfg):
    """The public calls that make a solve's starting point, and the
    arguments of ``cnc._mm_updates`` that ``cnc.solve`` passes from it."""
    x = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
    return y, majorized_input(x, y, cfg), objective(x, y, cfg), cfg


def loop_work(y, cfg):
    """Kernel calls, polishes and Newton steps of the MM loop from the start
    of a solve of y, which must converge, and how many solves (0 or 1)
    stopped on a polished iterate: those with a polish after every update."""
    x, history, converged, _, polishes, steps = cnc._mm_updates(*solve_start(y, cfg))
    if not converged:
        raise RuntimeError("the solve ran to its cap")
    updates = history.size - 1
    return {"kernel_calls": updates, "polishes": polishes, "newton_steps": steps,
            "polish_stops": int(polishes == updates)}


def compiled_loop(y, cfg):
    """A zero-argument call of the module's whole MM loop from the start of a
    solve of y; None without the module."""
    lib = prox._tvd_c
    if lib is None:
        return None
    y, shifted, f0, cfg = solve_start(y, cfg)
    args = (y, shifted, f0, cfg.lambda0, cfg.lambda1, cfg.penalty0.a, cfg.penalty1.a,
            KINDS.index(cfg.penalty0.kind), KINDS.index(cfg.penalty1.kind), cfg.max_iter, cfg.tol)
    return lambda: lib.mm_solve(*args)


def first_polish(y, cfg):
    """The iterate where the Python loop from the start of a solve of y
    first polishes, and the work of that polish."""
    seen = []
    polish = cnc._polish

    def recording(x, y, cfg):
        out = polish(x, y, cfg)
        seen.append((x, out))
        return out

    cnc._polish = recording
    try:
        cnc._mm_loop_python(*solve_start(y, cfg))
    finally:
        cnc._polish = polish
    x, (_, steps, rounds) = next((x, out) for x, out in seen if out is not None)
    return x, {"kernel_calls": 0, "polishes": 1, "newton_steps": steps, "merge_rounds": rounds}


def cli_denoise_ms(workdir):
    noisy, out = workdir / "noisy.txt", workdir / "out.txt"
    cli.write_signal(noisy, signal(300))
    cfg = cnc_config()
    argv = [sys.executable, "-m", "cncflsa.cli", "denoise", str(noisy), str(out),
            "--lambda0", repr(cfg.lambda0), "--lambda1", repr(cfg.lambda1)]
    start = time.perf_counter_ns()
    subprocess.run(argv, check=True, capture_output=True)
    return (time.perf_counter_ns() - start) / 1e6


def layers(workdir):
    """(name, repeats, zero-argument function returning ms per call), and
    for the solve, loop and polish rows the work of one call."""
    y300, cfg = signal(300), cnc_config()
    lam1 = cfg.lambda1
    out = []
    for n, inner in ((300, 200), (3000, 40), (30000, 4), (300000, 1)):
        y = signal(n)
        out.append((f"prox.tvd N={n}", REPEATS, lambda y=y, inner=inner: timed(lambda: tvd(y, lam1), inner)))
    for n, inner in ((300, 2000), (30000, 200)):
        y = signal(n)
        out.append((f"prox.as_signal N={n}", REPEATS,
                    lambda y=y, inner=inner: timed(lambda: prox.as_signal(y), inner)))
    for n, inner in ((300, 2000), (30000, 200)):
        x = tvd(signal(n), lam1)
        out.append((f"prox.soft_threshold N={n}", REPEATS, lambda x=x, inner=inner: timed(
            lambda: soft_threshold(x, cfg.lambda0), inner)))
    out.append(("prox.fused_lasso_l1 N=300", REPEATS,
                lambda: timed(lambda: fused_lasso_l1(y300, cfg.lambda0, lam1), 200)))
    y30k = signal(30000)
    out.append(("solve start N=300", REPEATS, lambda: timed(lambda: solve_start(y300, cfg), 200)))
    out.append(("solve start N=30000", REPEATS, lambda: timed(lambda: solve_start(y30k, cfg), 4)))
    for n, y, inner in ((300, y300, 400), (30000, y30k, 10)):
        x, spec = fused_lasso_l1(y, cfg.lambda0, lam1), cfg.penalty0
        for name, fn in (("PenaltySpec.value", lambda x=x: spec.value(x)),
                         ("PenaltySpec.residual_deriv", lambda x=x: spec.residual_deriv(x)),
                         ("cnc.objective", lambda x=x, y=y: objective(x, y, cfg)),
                         ("cnc.majorized_input", lambda x=x, y=y: majorized_input(x, y, cfg))):
            out.append((f"{name} N={n}", REPEATS, lambda fn=fn, inner=inner: timed(fn, inner)))
    for n, y, inner in ((300, y300, 40), (30000, y30k, 1)):
        work = loop_work(y, cfg)
        out.append((f"cnc.solve N={n}", REPEATS, lambda y=y, inner=inner: timed(
            lambda: solve(y, cfg), inner), {**work, "kernel_calls": work["kernel_calls"] + 1}))
        loop = compiled_loop(y, cfg)
        if loop is not None:
            out.append((f"MM loop compiled N={n}", REPEATS,
                        lambda loop=loop, inner=inner: timed(loop, inner), work))
    for n, y, inner in ((300, y300, 40), (30000, y30k, 1)):
        x, work = first_polish(y, cfg)
        out.append((f"cnc._polish N={n}", REPEATS, lambda x=x, y=y, inner=inner: timed(
            lambda: cnc._polish(x, y, cfg), inner), work))
    for n, y, inner in ((300, y300, 2000), (30000, y30k, 200)):
        x = solve(y, cfg).x
        out.append((f"signalgen.rmse N={n}", REPEATS, lambda x=x, y=y, inner=inner: timed(
            lambda: rmse(x, y), inner)))
    out.append(("criterion-7 sweep", 5, lambda: timed(
        lambda: cli.sweep_sigma(SWEEP_SIGMAS, 15, 0, 0.25, "atan", ["l1", "mdfl", "cnc"]), 1)))
    out.append(("cli denoise N=300", REPEATS, lambda: cli_denoise_ms(workdir)))
    return out


def measure():
    result = {}
    gauge = Gauge(in_process, GAUGE_NOMINAL_MS, 0.0)
    with tempfile.TemporaryDirectory() as workdir:
        for name, count, fn, *work in layers(Path(workdir)):
            fn()  # warm caches and lazy set-up
            samples = []
            for _ in range(count):
                samples.append(fn())
                gauge.read()
            result[name] = summary(samples)
            result[name]["gauge_ms"] = round(float(np.median(gauge.ms[-count:])), 4)
            counts = ""
            if work:
                result[name].update(work[0])
                counts = "   " + ", ".join(f"{k.replace('_', ' ')} {v}" for k, v in work[0].items())
            print(f"{name:32s} {result[name]['median_ms']:12.4f} ms"
                  f"   (gauge {result[name]['gauge_ms']:.2f} ms){counts}", flush=True)
    return result


def label_ms(runs, name, calibrated):
    """Median over runs of a layer's median, raw or calibrated; None when no
    run has it (a calibrated value needs the run's gauge readings)."""
    values = [layer["median_ms"] * (GAUGE_NOMINAL_MS / layer["gauge_ms"] if calibrated else 1.0)
              for layer in (r["layers"].get(name) for r in runs)
              if layer is not None and (not calibrated or "gauge_ms" in layer)]
    return float(np.median(values)) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="file name part: BENCH_<tag>.json")
    parser.add_argument("--label", required=True, help="key of this run in the file, e.g. parent")
    parser.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    path = args.out_dir / f"BENCH_{args.tag}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"tag": args.tag, "runs": {}}
    doc["runs"].setdefault(args.label, []).append({
        "tvd_backend": prox.TVD_BACKEND,
        "nproc": os.cpu_count(),
        "repeats": REPEATS,
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "gauge": {"reference": "perfbench/gauge.py in_process", "nominal_ms": GAUGE_NOMINAL_MS},
        "layers": measure(),
    })
    path.write_text(json.dumps(doc, indent=2) + "\n")
    runs = doc["runs"]
    if "parent" in runs and "change" in runs:
        print(f"\n{'layer':32s} {'parent ms':>12s} {'change ms':>12s} {'ratio':>7s} {'calibrated':>10s}"
              f"   ({len(runs['parent'])} parent and {len(runs['change'])} change runs)")
        for name in runs["change"][-1]["layers"]:
            before, after = (label_ms(runs[label], name, False) for label in ("parent", "change"))
            if before is None:  # a layer the parent's script does not time
                print(f"{name:32s} {'-':>12s} {after:12.4f}")
                continue
            cal = [label_ms(runs[label], name, True) for label in ("parent", "change")]
            ratio, note = f"{'-':>10s}", ""
            if None not in cal:
                ratio = f"{cal[0] / cal[1]:10.2f}"
                if (before - after) * (cal[0] - cal[1]) < 0:
                    note = "   unresolved"
            print(f"{name:32s} {before:12.4f} {after:12.4f} {before / after:7.2f} {ratio}{note}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
