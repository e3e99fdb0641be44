"""The span contract of the benchmark in `perfbench/`: a traced run of each
workload's code path records calls of every span that `perfbench/run.py`
expects on it.  A change that routes a public call path around the public
functions the tracer wraps fails here, before a traced benchmark run
reports it as incorrect.  The expected names are read from `run.py`, and
the tracer is `perfbench/spans.py`'s own.  Since the tracer wraps the
names in `cncflsa.__all__`, that list must name everything the package
imports."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import cncflsa
from cncflsa import cli, cnc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run, spans = load("run"), load("spans")


def fixture_config(sigma=0.5):
    """The benchmark's parameterization: lambda0 = lambda1/10, half the
    convexity budget on amplitudes, a1 on the boundary."""
    lam1 = cncflsa.lambda1_heuristic(300, sigma)
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    return cnc.CncConfig(lam0, lam1, cncflsa.PenaltySpec("atan", a0),
                         cncflsa.PenaltySpec("atan", cncflsa.select_a1(lam0, lam1, a0)))


# Library names are looked up when called, so every call below goes through
# the tracer's wrappers.
def fixture_solve(tmp_path):
    clean = cncflsa.generate_pulses(cncflsa.default_pulse_spec())
    y = cncflsa.add_awgn(clean, cncflsa.NoiseSpec(0.5, 1))
    assert np.all(np.isfinite(cnc.solve(y, fixture_config()).x))


def sweep(tmp_path):
    assert len(cli.sweep_sigma([0.5], 1, 0, 0.25, "atan", ["l1", "mdfl", "cnc"])) == 3


def denoise(tmp_path):
    noisy, out = tmp_path / "in.txt", tmp_path / "out.txt"
    assert cli.main(["generate", "--output", str(noisy), "--default",
                     "--sigma", "0.5", "--seed", "1"]) == 0
    cfg = fixture_config()
    assert cli.main(["denoise", str(noisy), str(out), "--lambda0", repr(cfg.lambda0),
                     "--lambda1", repr(cfg.lambda1)]) == 0


WORKLOADS = {"denoise_long": fixture_solve, "sweep300": sweep, "cli_cold": denoise}


def test_every_workload_has_a_stand_in():
    assert set(WORKLOADS) == set(run.EXPECTED_EXTRA)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_records_every_expected_span(workload, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        WORKLOADS[workload](tmp_path)
    finally:
        tracer.uninstall()
    summary, _ = spans.summarize([tracer.spans])
    expected = run.EXPECTED_SPANS + run.EXPECTED_EXTRA[workload]
    silent = [name for name in expected if summary.get(name, {"calls": 0})["calls"] == 0]
    assert not silent, f"no calls recorded on {workload}: {silent}"


def test_all_lists_every_name_the_package_imports():
    """The tracer wraps the functions named in `cncflsa.__all__`, so a name
    the package imports but leaves out of it would go untraced."""
    imported = {name for name, value in vars(cncflsa).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == set(cncflsa.__all__)
