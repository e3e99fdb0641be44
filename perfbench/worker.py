"""One fresh interpreter of the benchmark: set up a workload, run timed ops,
check every output and print one JSON line with what it measured.

Started by ``run.py``, never by hand.  A ``probe`` only sets up (its set-up
time is one ``setup_s`` sample); a ``measure`` worker also runs ops for its
slice of the run.  With ``--trace 1`` the worker alternates untraced and
traced passes over a fixed set of items and reports per-layer numbers.
On ``cli_cold`` the traced stand-in for ``python -m cncflsa.cli`` is
``clichild.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time

from gauge import Gauge, fresh_interpreter, in_process

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

SIGMA = 0.5             # noise level of denoise_long and cli_cold
BETA = 0.25             # lambda1 = BETA * sqrt(300) * sigma, the per-segment heuristic
SWEEP_SIGMAS = (0.25, 0.5, 1.0)
SWEEP_TRIALS = 15       # the criterion-7 protocol; fewer trials break the rmse ordering on some seeds
METHODS = ("l1", "mdfl", "cnc")
TILES = 100             # denoise_long input: the 300-sample fixture tiled to 30,000 samples
DENOISE_ITEMS = 32      # distinct realizations; fewer leave rmse_mean and cert_p50 seed-sensitive
CLI_ITEMS = 128         # distinct 300-sample files, for the same reason
TRACE_ITEMS = {"sweep300": 1, "denoise_long": 4, "cli_cold": 16}


def base_seed(seed):
    """First noise seed of a run; every realization seed is base + index < 2**64."""
    return (seed % 2**40) * 1000


def certificate(y, x, cfg):
    """Optimality residual of an MM solution: 0 exactly at the minimizer."""
    from cncflsa.cnc import majorized_input
    from cncflsa.prox import fused_lasso_optimality_residual

    return fused_lasso_optimality_residual(majorized_input(x, y, cfg), x, cfg.lambda0, cfg.lambda1)


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def cnc_config(sigma):
    """The README parameterization: lambda0 = lambda1/10, a0 = 0.5/lambda0,
    a1 on the convexity boundary."""
    from cncflsa import CncConfig, PenaltySpec, select_a1

    lam1 = BETA * math.sqrt(300) * sigma
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    return CncConfig(lam0, lam1, PenaltySpec("atan", a0), PenaltySpec("atan", select_a1(lam0, lam1, a0)))


class Failure(Exception):
    """An op whose output failed a check."""


class Sweep300:
    """cli.sweep_sigma on the 300-sample fixture; one item is the whole table.
    A latency op is one cli.collect_run_records call: one method, sigma and
    lambda0 over the 15 trials, hooked where sweep_sigma looks it up.  A
    single trial solve is too small an op: the median solve takes 6, 7 or 8
    updates depending on the seed, and one solve is shorter than the
    machine's speed bursts."""

    name, items, n_samples, child, gauge = "sweep300", 1, 300, None, None
    yardstick = (in_process, 12.0, 0.25)     # reference, nominal ms, read every s

    def __init__(self, seed, tmp):
        self.base = base_seed(seed)

    def setup(self):
        from cncflsa import cli

        self.cli = cli
        cli.sweep_sigma([SIGMA], 1, self.base, BETA, "atan", list(METHODS))

    def run(self, item):
        cli = self.cli
        ops, captured, records = [], [], [0]
        collect, solve = cli.collect_run_records, cli.solve

        def timed_collect(*args, **kwargs):
            t0 = time.perf_counter()
            out = collect(*args, **kwargs)
            ops.append((t0, time.perf_counter()))
            records[0] += len(out)
            if self.gauge is not None:
                self.gauge.maybe()
            return out

        def captured_solve(y, cfg, *args, **kwargs):
            res = solve(y, cfg, *args, **kwargs)
            captured.append((y, cfg, res))
            return res

        cli.collect_run_records, cli.solve = timed_collect, captured_solve
        try:
            rows = cli.sweep_sigma(list(SWEEP_SIGMAS), SWEEP_TRIALS, self.base, BETA, "atan",
                                   list(METHODS))
        finally:
            cli.collect_run_records, cli.solve = collect, solve
        return records[0] * 300, ops, (rows, captured)

    def check(self, item, out):
        rows, captured = out
        if len(rows) != len(SWEEP_SIGMAS) * len(METHODS):
            raise Failure(f"table has {len(rows)} rows")
        by_sigma = {}
        for row in rows:
            if not math.isfinite(row["mean_rmse"]):
                raise Failure(f"non-finite rmse in row {row}")
            by_sigma.setdefault(row["value"], {})[row["method"]] = row["mean_rmse"]
        for sigma, r in by_sigma.items():
            if not r["cnc"] < r["mdfl"] < r["l1"]:
                raise Failure(f"rmse ordering cnc < mdfl < l1 broken at sigma {sigma}: {r}")
        return digest([sorted(r.items()) for r in rows],
                      [res.iterations for _, _, res in captured])

    def quality(self, item, out):
        rows, captured = out
        return {"rmse": [r["mean_rmse"] for r in rows],
                "certs": [certificate(y, res.x, cfg) for y, cfg, res in captured]}


class DenoiseLong:
    """cnc.solve on the fixture tiled to 30,000 samples; one item per
    realization, one solve per op."""

    name, items, n_samples, child = "denoise_long", DENOISE_ITEMS, 300 * TILES, None
    yardstick = (in_process, 12.0, 0.25)

    def __init__(self, seed, tmp):
        self.base = base_seed(seed)

    def setup(self):
        import numpy as np
        from cncflsa import NoiseSpec, add_awgn, default_pulse_spec, generate_pulses

        self.clean = np.tile(generate_pulses(default_pulse_spec()), TILES)
        self.ys = [add_awgn(self.clean, NoiseSpec(SIGMA, self.base + i)) for i in range(self.items)]
        self.cfg = cnc_config(SIGMA)
        self.run(0)

    def run(self, item):
        from cncflsa import cnc

        y = self.ys[item]
        t0 = time.perf_counter()
        res = cnc.solve(y, self.cfg)
        return y.size, [(t0, time.perf_counter())], res

    def check(self, item, res):
        import numpy as np

        if res.x.shape != self.ys[item].shape or not np.all(np.isfinite(res.x)):
            raise Failure(f"item {item}: output not finite or of wrong length")
        return digest(res.x.tobytes(), res.iterations, res.converged)

    def quality(self, item, res):
        from cncflsa import rmse

        cert = certificate(self.ys[item], res.x, self.cfg)
        if not math.isfinite(cert):
            raise Failure(f"item {item}: non-finite certificate")
        return {"rmse": [rmse(res.x, self.clean)], "certs": [cert]}


class CliCold:
    """One fresh `python -m cncflsa.cli denoise` process per op on a
    300-sample file written by `generate --default`; one item per file."""

    name, items, n_samples = "cli_cold", CLI_ITEMS, 300
    yardstick = (fresh_interpreter, 165.0, 0.6)

    def __init__(self, seed, tmp):
        self.base = base_seed(seed)
        self.tmp = tmp
        self.child = None        # report file of the traced clichild.py, while tracing

    def setup(self):
        from cncflsa import cli

        cfg = cnc_config(SIGMA)
        self.cfg = cfg
        self.lams = ["--lambda0", repr(cfg.lambda0), "--lambda1", repr(cfg.lambda1)]
        for i in range(self.items):
            cli.main(["generate", "--output", self.path(i, "in"), "--default",
                      "--sigma", repr(SIGMA), "--seed", str(self.base + i)])
        self.run(0)

    def path(self, item, kind):
        return os.path.join(self.tmp, f"{kind}{item}.txt")

    def command(self, item, report=None, trace=False):
        argv = ["denoise", self.path(item, "in"), self.path(item, "out")] + self.lams
        if report is None:
            return [sys.executable, "-m", "cncflsa.cli"] + argv
        return [sys.executable, os.path.join(HERE, "clichild.py"), report, str(int(trace))] + argv

    def run(self, item):
        cmd = self.command(item, self.child, trace=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise Failure(f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        with open(self.path(item, "out"), "rb") as fh:
            out = fh.read()
        with open(self.path(item, "out") + ".json", "rb") as fh:
            meta = fh.read()
        return 300, [(t0, t1)], (out, meta)

    def peak_rss_mb(self):
        """Peak resident set of one untimed denoise process."""
        report = os.path.join(self.tmp, "rss.json")
        subprocess.run(self.command(0, report), capture_output=True, timeout=60, check=True)
        with open(report, encoding="ascii") as fh:
            return json.load(fh)["hwm_kb"] / 1024.0

    def check(self, item, out):
        signal, meta = out
        doc = json.loads(meta)
        if not isinstance(doc.get("iterations"), int) or not isinstance(doc.get("converged"), bool):
            raise Failure(f"item {item}: metadata lacks iterations/converged")
        return digest(signal, meta)

    def quality(self, item, out):
        from cncflsa import default_pulse_spec, generate_pulses, rmse
        from cncflsa.cli import read_signal

        x = read_signal(self.path(item, "out"))
        y = read_signal(self.path(item, "in"))
        cert = certificate(y, x, self.cfg)
        if x.size != 300 or not math.isfinite(cert):
            raise Failure(f"item {item}: wrong length or non-finite certificate")
        return {"rmse": [rmse(x, generate_pulses(default_pulse_spec()))], "certs": [cert]}


WORKLOADS = {"sweep300": Sweep300, "denoise_long": DenoiseLong, "cli_cold": CliCold}


class Ledger:
    """Outcome of every op: digests, failures, op intervals and, when
    ``pauses`` is given, each item's quality.  Quality is computed right
    after the first op on an item and its interval goes to ``pauses``, which
    the timed phase leaves out."""

    def __init__(self, wl, pauses=None):
        self.wl = wl
        self.pauses = pauses
        self.attempted = self.failed = self.samples = 0
        self.errors = []
        self.intervals = []
        self.digests = {}
        self.items = {}

    def fail(self, exc):
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def op(self, item):
        self.attempted += 1
        try:
            samples, lat, out = self.wl.run(item)
            d = self.wl.check(item, out)
            if self.digests.setdefault(item, d) != d:
                raise Failure(f"item {item}: output differs from an earlier op")
        except Exception as exc:  # every failed op is counted, not raised
            self.fail(exc)
            return
        self.samples += samples
        self.intervals += lat
        if self.pauses is not None and item not in self.items:
            t0 = time.perf_counter()
            try:
                self.items[item] = dict(self.wl.quality(item, out), digest=d)
            except Exception as exc:
                self.fail(exc)
            self.pauses.append((t0, time.perf_counter()))


def timed_loop(ledger, g, first, items, budget):
    """Run ops on items first, first+1, ... (cyclic) until budget seconds have
    passed; another op starts only if it should end near the budget."""
    t0 = time.perf_counter()
    g.read()
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() - t0 + last / 2 < budget:
        g.maybe()
        s = time.perf_counter()
        ledger.op((first + n) % items)
        last = time.perf_counter() - s
        n += 1
    g.read()
    return n, t0, time.perf_counter()


def layer_metrics(summary, solves, units, wall_ns, n_samples):
    """Per-layer numbers of one traced pass, per unit of work."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ms(name, key):
        return get(name, key) / 1e6 / units

    tvd_calls = get("prox.tvd", "calls")
    m = {
        "prox.tvd.calls": tvd_calls / units,
        "prox.tvd.busy_ms": ms("prox.tvd", "busy_ns"),
        "prox.tvd.ns_per_sample": get("prox.tvd", "busy_ns") / (tvd_calls * n_samples) if tvd_calls else 0.0,
        "prox.tvd.share": get("prox.tvd", "busy_ns") / wall_ns,
        "prox.soft_threshold.busy_ms": ms("prox.soft_threshold", "busy_ns"),
        "prox.fused_lasso_l1.calls": get("prox.fused_lasso_l1", "calls") / units,
        "prox.fused_lasso_l1.self_ms": ms("prox.fused_lasso_l1", "self_ns"),
        "penalties.value.calls": get("penalties.value", "calls") / units,
        "penalties.value.busy_ms": ms("penalties.value", "busy_ns"),
        "penalties.residual_deriv.calls": get("penalties.residual_deriv", "calls") / units,
        "penalties.residual_deriv.busy_ms": ms("penalties.residual_deriv", "busy_ns"),
        "cnc.solve.calls": get("cnc.solve", "calls") / units,
        "cnc.solve.busy_ms": ms("cnc.solve", "busy_ns"),
        "cnc.solve.self_ms": ms("cnc.solve", "self_ns"),
        "cnc.objective.busy_ms": ms("cnc.objective", "busy_ns"),
        "cnc.majorized_input.busy_ms": ms("cnc.majorized_input", "busy_ns"),
        "cli.collect_run_records.self_ms": ms("cli.collect_run_records", "self_ns"),
        "cli.sweep_sigma.self_ms": ms("cli.sweep_sigma", "self_ns"),
        "cli.read_signal.busy_ms": ms("cli.read_signal", "busy_ns"),
        "cli.write_signal.busy_ms": ms("cli.write_signal", "busy_ns"),
        "cli.main.busy_ms": ms("cli.main", "busy_ns"),
    }
    for method in ("mdfl", "cnc"):
        its = [it for meth, it, _ in solves if meth == method]
        m[f"cnc.updates_per_solve.{method}"] = sum(its) / len(its) if its else 0.0
    m["cnc.max_iter_frac"] = sum(cap for _, _, cap in solves) / len(solves) if solves else 0.0
    return m


def traced_passes(wl, ledger, tracer, budget):
    """Alternate an untraced and a traced pass over the trace items until the
    budget is spent.  Returns the per-layer numbers of each traced pass and,
    on cli_cold, the spans of every traced child process."""
    from spans import summarize

    items = range(TRACE_ITEMS[wl.name])
    passes, child_spans, t0 = [], [], time.perf_counter()
    while not passes or time.perf_counter() - t0 < budget:
        set_tracing(wl, tracer, False)
        s = time.perf_counter_ns()
        for item in items:
            ledger.op(item)
        plain_ns = time.perf_counter_ns() - s
        set_tracing(wl, tracer, True)
        mark, children = len(tracer.spans), []
        s = time.perf_counter_ns()
        for item in items:
            s_op = time.perf_counter_ns()
            ledger.op(item)
            if wl.child:
                with open(wl.child, encoding="ascii") as fh:
                    children.append((time.perf_counter_ns() - s_op, json.load(fh)))
        traced_ns = time.perf_counter_ns() - s
        set_tracing(wl, tracer, False)
        summary, solves = summarize([c["spans"] for _, c in children] or [tracer.spans[mark:]])
        m = layer_metrics(summary, solves, len(items), traced_ns, wl.n_samples)
        if children:
            n = len(children)
            m["cli.import_ms"] = sum(c["import_ns"] for _, c in children) / 1e6 / n
            m["cli.startup_ms"] = sum(wall - sum(sp[3] - sp[2] for sp in c["spans"] if sp[1] == "cli.main")
                                      for wall, c in children) / 1e6 / n
            child_spans += [c["spans"] for _, c in children]
        m["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
        m["_calls"] = {name: agg["calls"] for name, agg in summary.items()}
        passes.append(m)
    return passes, child_spans


def set_tracing(wl, tracer, on):
    """In-process workloads trace through the installed wrappers; cli_cold
    runs its children through the traced stand-in instead."""
    if isinstance(wl, CliCold):
        wl.child = os.path.join(wl.tmp, "spans.json") if on else None
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def run_worker(args):
    t0 = time.perf_counter()
    from cncflsa import cli  # noqa: F401  (the import cost is part of set-up)
    import_ms = (time.perf_counter() - t0) * 1e3
    import cncflsa
    if os.path.dirname(os.path.dirname(os.path.abspath(cncflsa.__file__))) != os.path.join(ROOT, "src"):
        raise SystemExit(f"cncflsa imported from {cncflsa.__file__}, not from this checkout")

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    result = {"import_ms": import_ms}
    if args.trace:
        from spans import Tracer, summarize

        tracer = Tracer()
        tracer.install()          # set-up is traced too: add_awgn runs there
        wl.setup()
        tracer.uninstall()
        setup_summary, _ = summarize([tracer.spans])
    else:
        wl.setup()
    result["ready_at"] = time.monotonic()
    g = Gauge(*wl.yardstick)
    for _ in range(3):
        g.read()
    result["setup_factor"] = g.factor(g.at[1])
    if args.role == "probe":
        return result

    if args.trace:
        ledger = Ledger(wl)
        awgn = setup_summary.get("signalgen.add_awgn", {"calls": 0, "busy_ns": 0})
        passes, child_spans = traced_passes(wl, ledger, tracer, args.slice)
        for m in passes:
            m["signalgen.add_awgn.busy_ms"] = awgn["busy_ns"] / 1e6
            m["_calls"]["signalgen.add_awgn"] = awgn["calls"]
            m.setdefault("cli.import_ms", import_ms)
            m.setdefault("cli.startup_ms", 0.0)
        result["passes"] = passes
        os.makedirs(os.path.join(STATE, "trace"), exist_ok=True)
        with open(os.path.join(STATE, "trace", f"{args.workload}-w{args.index}.json"), "w",
                  encoding="ascii") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans, "children": child_spans}, fh)
        result["items"] = {item: {"digest": d} for item, d in ledger.digests.items()}
    else:
        g = wl.gauge = Gauge(*wl.yardstick)
        ledger = Ledger(wl, g.gaps)
        n, t0, t1 = timed_loop(ledger, g, args.first, wl.items, args.slice)
        wl.gauge = None
        result.update(
            ops=n, samples=ledger.samples, timed_s=g.scaled_s(t0, t1),
            raw_timed_s=t1 - t0 - sum(g1 - g0 for g0, g1 in g.gaps),
            latencies_ms=[(b - a) * 1e3 * g.factor((a + b) / 2) for a, b in ledger.intervals],
            raw_latencies_ms=[(b - a) * 1e3 for a, b in ledger.intervals],
            gauge_ms=g.ms)
        result["rss_mb"] = (wl.peak_rss_mb() if isinstance(wl, CliCold)
                            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.complete:
            for item in range(args.first + n, wl.items):
                ledger.op(item)
        result["items"] = ledger.items
    result.update(attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors)
    return result


if __name__ == "__main__":
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--role", choices=("probe", "measure"), required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--slice", type=float, default=0.0)
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--complete", action="store_true")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    print(json.dumps(run_worker(p.parse_args())))
