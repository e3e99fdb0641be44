"""No bit of a solve follows the BLAS library's settings: child
interpreters that differ only in OpenBLAS's thread count or in the kernel
it picks for this CPU print one hash of the same solves, RMSEs and
criterion-7 row.  F's three sums and `rmse`'s are numpy's pairwise `add`,
never BLAS `ddot`, whose order of addition follows both settings once it
splits a long vector between threads.
Where the variables name nothing (numpy on another BLAS), every child
gets the same settings anyway, and the test still holds."""

import subprocess
import sys

from clirun import child_env

# The benchmark's parameterization (perfbench's README parameterization at
# sigma 0.5), solved on the 300-sample fixture and on the fixture tiled to
# 30,000 samples, whose sums are long enough for OpenBLAS to use threads,
# and rmse of each solve against the clean signal; then objective at 30,000
# samples, its data term alone nonzero, and the criterion-7 row of cnc at
# sigma 0.5, whose mean_rmse and tuned lambda0 follow rmse's bits.
CHILD = """
import hashlib
import numpy as np
from cncflsa import (CncConfig, NoiseSpec, PenaltySpec, add_awgn, cli, default_pulse_spec,
                     generate_pulses, objective, rmse, select_a1, solve)

lam1 = 0.25 * np.sqrt(300) * 0.5
lam0 = 0.1 * lam1
a0 = 0.5 / lam0
cfg = CncConfig(lam0, lam1, PenaltySpec("atan", a0), PenaltySpec("atan", select_a1(lam0, lam1, a0)))
clean = generate_pulses(default_pulse_spec())
h = hashlib.sha256()
for tiles in (1, 100):
    y = add_awgn(np.tile(clean, tiles), NoiseSpec(0.5, 3))
    result = solve(y, cfg)
    h.update(result.x.tobytes() + result.objective_history.tobytes())
    h.update(repr((result.iterations, result.converged)).encode())
    h.update(np.float64(rmse(result.x, np.tile(clean, tiles))).tobytes())
h.update(np.float64(objective(np.zeros_like(y), y, cfg)).tobytes())
h.update(repr(cli.sweep_sigma([0.5], 15, 0, 0.25, "atan", ["cnc"])).encode())
print(h.hexdigest())
"""

SETTINGS = (
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Sandybridge"},
)


def run_child(setting):
    env = child_env()
    env.pop("OPENBLAS_CORETYPE", None)
    env.update(setting)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_blas_threads_and_kernel_move_no_solve_bit():
    lines = [run_child(setting) for setting in SETTINGS]
    assert len(lines[0]) == 65
    assert lines == [lines[0]] * len(SETTINGS), list(zip(SETTINGS, lines))
