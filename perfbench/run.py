"""Benchmark of cncflsa: three workloads, end-to-end metrics untraced and
per-layer metrics traced.  See perfbench/README.md for what each workload
and metric is for.

    python3 perfbench/run.py --workload sweep300 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it records the environment and the details behind the metrics.  The
work itself runs in fresh interpreters (worker.py), one after another, so
that set-up is sampled several times across the run and no two processes
compete for the CPU.  BLAS and OpenMP are pinned to one thread here and in
every child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sweep300", "denoise_long", "cli_cold")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0      # the whole run, set-up included, must end within 180 s
MIN_TAIL_OPS = 11       # op_ms_tail needs ten ops beyond it

# Untraced: set-up probes interleave with two measuring workers, so set-up
# is sampled five times spread over the run.  Traced: two measuring workers,
# whose per-layer counts must agree exactly.
PLAN = {0: ("probe", "measure", "probe", "measure", "probe"), 1: ("measure", "measure")}

# Values that must repeat exactly across processes and runs at one seed.
EXACT = ("rmse_mean", "cert_p50", "cert_max", "prox.tvd.calls", "prox.fused_lasso_l1.calls",
         "penalties.value.calls", "penalties.residual_deriv.calls", "cnc.solve.calls",
         "cnc.updates_per_solve.mdfl", "cnc.updates_per_solve.cnc", "cnc.max_iter_frac")

# Spans that must record calls on each workload in a traced run.
EXPECTED_SPANS = ("prox.tvd", "prox.soft_threshold", "prox.fused_lasso_l1", "penalties.value",
                  "penalties.residual_deriv", "cnc.solve", "cnc.objective",
                  "cnc.majorized_input", "signalgen.add_awgn")
EXPECTED_EXTRA = {"sweep300": ("cli.collect_run_records", "cli.sweep_sigma"),
                  "denoise_long": (),
                  "cli_cold": ("cli.main", "cli.read_signal", "cli.write_signal")}

UNITS = {"samples_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "rmse_mean": "1", "cert_p50": "1"}


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls") or ".updates_per_solve." in name:
        return "count"
    if name.endswith("ns_per_sample"):
        return "ns"
    return "1"


def environment(seed, trace):
    env = {"nproc": os.cpu_count(), "python": platform.python_version(), "seed": seed,
           "trace": trace, "threads": {v: os.environ[v] for v in THREAD_VARS}}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, cncflsa.prox as p; print(numpy.__version__, getattr(p, 'TVD_BACKEND', 'python'))"],
        capture_output=True, text=True, timeout=60)
    env["numpy"], env["tvd_backend"] = (probe.stdout.split() + ["?", "?"])[:2]
    env["code_sha256"] = code_digest()
    env["git_commit"] = git_commit()
    return env


def code_digest():
    """Digest of every file under src/ and perfbench/, caches left out."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(d, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def run_worker(args, role, index, first, complete, slice_s, deadline, tmp):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--role", role, "--trace", str(args.trace),
           "--slice", repr(slice_s), "--first", str(first), "--index", str(index), "--tmp", tmp]
    if complete:
        cmd.append("--complete")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} worker {index} passed the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker {index} exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready_at"] - spawned
    return res


def merge_items(workers, problems):
    """Per item: one digest and one set of quality values across workers."""
    merged = {}
    for w in workers:
        for key, item in w["items"].items():
            prev = merged.setdefault(key, item)
            for field in ("digest", "rmse", "certs"):
                if field in item and field in prev and item[field] != prev[field]:
                    problems.append(f"item {key}: {field} differs between fresh interpreters")
    return merged


def tail(values):
    """Highest percentile with at least ten ops beyond it, and that percentile."""
    s = sorted(values)
    n = len(s)
    return s[n - MIN_TAIL_OPS], 100.0 * (n - MIN_TAIL_OPS + 1) / n


def end_to_end(workers, items, detail):
    """End-to-end metrics; every time is calibrated by the worker's gauge
    (see worker.Gauge) and the raw value goes to the detail line."""
    measured = [w for w in workers if "timed_s" in w]
    lat = [x for w in measured for x in w["latencies_ms"]]
    raw_lat = [x for w in measured for x in w["raw_latencies_ms"]]
    rmses = [r for it in items.values() for r in it["rmse"]]
    certs = [c for it in items.values() for c in it["certs"]]
    samples = sum(w["samples"] for w in measured)
    m = {
        "samples_per_s": samples / sum(w["timed_s"] for w in measured),
        "op_ms_p50": statistics.median(lat),
        "setup_s": statistics.median(w["setup_s"] * w["setup_factor"] for w in workers),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in measured),
        "rmse_mean": statistics.fmean(rmses),
        "cert_p50": statistics.median(certs),
    }
    if len(lat) >= MIN_TAIL_OPS:
        m["op_ms_tail"], detail["op_ms_tail_pct"] = tail(lat)
        detail["raw_op_ms_tail"] = tail(raw_lat)[0]
    detail.update(
        latency_ops=len(lat), items=len(items), cert_max=max(certs),
        raw_samples_per_s=samples / sum(w["raw_timed_s"] for w in measured),
        raw_op_ms_p50=statistics.median(raw_lat),
        raw_setup_s=statistics.median(w["setup_s"] for w in workers),
        setup_samples_s=[w["setup_s"] for w in workers],
        gauge_ms_p50=statistics.median(x for w in measured for x in w["gauge_ms"]),
        raw_timed_s=sum(w["raw_timed_s"] for w in measured))
    return m


def per_layer(workers, problems, workload):
    passes = [p for w in workers for p in w["passes"]]
    names = [k for k in passes[0] if not k.startswith("_")]
    m = {}
    for name in names:
        values = [p[name] for p in passes]
        if name in EXACT and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        m[name] = statistics.median(values)
    for span in EXPECTED_SPANS + EXPECTED_EXTRA[workload]:
        if not all(p["_calls"].get(span, 0) > 0 for p in passes):
            problems.append(f"span {span} recorded no calls on {workload}")
    return m


def check_repeat(workload, seed, trace, code, exact, digests, problems):
    """Exact values must equal those of an earlier run of the same code at
    this seed; other code (a different digest) is never compared."""
    path = os.path.join(STATE, "exact", f"{workload}-{seed}-{trace}-{code}.json")
    now = {"digests": digests, "exact": exact}
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            before = json.load(fh)
        for group in ("digests", "exact"):
            for k, v in now[group].items():
                if k in before[group] and before[group][k] != v:
                    problems.append(f"{k} = {v!r} differs from an earlier run ({before[group][k]!r})")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(now, fh)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "cncflsa", "__init__.py")):
        print(f"error: no cncflsa sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")

    plan = PLAN[args.trace]
    n_measure = plan.count("measure")
    tmp = os.path.join(STATE, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    workers, first, problems = [], 0, []
    try:
        for i, role in enumerate(plan):
            last = role == "measure" and plan[i + 1:].count("measure") == 0
            w = run_worker(args, role, i, first, last, args.seconds / n_measure, deadline, tmp)
            first += w.get("ops", 0)
            workers.append(w)
        env = environment(args.seed, args.trace)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = [w for w in workers if w.get("items") is not None]
    items = merge_items(measured, problems)
    detail = {"workload": args.workload, "env": env}
    if args.trace:
        metrics = per_layer(measured, problems, args.workload)
    else:
        metrics = end_to_end(workers, items, detail)
    exact = {k: v for k, v in {**detail, **metrics}.items() if k in EXACT}
    check_repeat(args.workload, args.seed, args.trace, env["code_sha256"], exact,
                 {k: v["digest"] for k, v in items.items()}, problems)
    attempted = sum(w.get("attempted", 0) for w in measured)
    failed = sum(w.get("failed", 0) for w in measured)
    errors = [e for w in measured for e in w.get("errors", [])]
    detail.update(error_rate=failed / max(attempted, 1), errors=errors[:5], problems=problems)
    units = {k: (UNITS[k] if k in UNITS else layer_unit(k)) for k in metrics}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
