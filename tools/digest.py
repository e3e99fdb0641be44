"""Bit-identity digest of cncflsa's results: one sha256 per backend.

Each digest covers the bytes of

- seeded random solves: N in {1, 2, 3, 17, 129, 300, 1000} with -0.0 and
  0.0 samples, each penalty's kind drawn on its own, lambda0 and lambda1
  sometimes 0, update caps of 1, 3 and 50, and tol 1e-9 or 1e-300; tol
  bounds the certificate, so 1e-300 stops a solve only where its
  certificate reads exactly 0 (or a subnormal), and most of those solves
  run to the cap; for each, the iterate, the objective history, the update
  count, the stopping flag, the certificate and the polish count.  The
  certificate of a solve that stopped on an update is ||e||_1 / lambda1
  (max|e| / lambda0 where lambda1 = 0); that of a solve that stopped on the
  polished iterate after its last update (as every solve with polishes ==
  iterations did) is the subgradient oracle
  ``fused_lasso_optimality_residual`` at that iterate;
- the criterion-7 table, ``cli.sweep_sigma`` over sigma = 0.25, 0.5 and 1
  with 15 trials and all three methods: every row, and the iterate,
  history, certificate and polish count of each of its MM solves;
- ``cli denoise`` on a noisy fixture for a few flag sets: the output file
  and its JSON metadata;
- the public penalty functions on seeded random signals of the same sizes,
  with each kind at random degrees and at the edge degrees 2**52 and 2**55
  (a*|x| on both sides of 2**56, past which s' is -sign(x)), 1e160 (past
  the overflow of the atan and rational squares) and 1e308 (past that of
  a*|x| itself, and of the rational phi's 0.5*a*|x|; not for atan, which
  rejects it): ``PenaltySpec.value`` and
  ``PenaltySpec.residual_deriv`` of the signal, its diff and its first
  sample, and ``objective`` and ``majorized_input``.

Only public names are used, and the backend is switched through
``cncflsa.prox._tvd_c`` alone, so the script runs unchanged on any checkout
of the package since zero weights need no ``allow_degenerate=True``; digest
an older checkout with the script of its own tree:

    PYTHONPATH=<checkout>/src python tools/digest.py

On one machine, with one numpy and one BLAS library, two checkouts agree
bit for bit on all of the above with a backend exactly when they print the
same digest for it.  Across machines the digest also follows what numpy
and BLAS pick for the CPU, not only the code:

- numpy dispatches ``arctan`` and ``log1p`` by CPU feature, so hiding
  features (``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
  AVX512_SPR"`` on an AVX-512 x86-64) changes their bytes, and with them
  the random-solve, sweep-table and penalty-function sections;
- F, every solve and ``rmse`` add without BLAS, so neither OpenBLAS's
  kernel (``OPENBLAS_CORETYPE``) nor its thread count moves any section
  (``tests/test_blas_settings.py``).

Below each backend's digest, one line per section gives the sha256 of that
section's bytes alone, so two checkouts that differ show which sections
moved.  The metadata's ``tvd_backend`` line names the backend, not a
result, so it is left out, and both backends give one digest when their
results agree.  The script exits 0 when both backends ran and gave one
digest, and 1 when they differ or the library did not load.  On a 2-core
VM the ``c`` digest takes about 1 s and the ``python`` one about 12 s.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from cncflsa import KINDS, CncConfig, PenaltySpec, cli, majorized_input, objective, prox, solve

SOLVES = 400
PENALTY_DRAWS = 300
EDGE_DEGREES = (2.0**52, 2.0**55, 1e160, 1e308)
SIZES = (1, 2, 3, 17, 129, 300, 1000)
CAPS = (1, 3, 50)
TOLS = (1e-9, 1e-300)

DENOISE_FLAGS = (
    ("--lambda0", "0.22", "--lambda1", "2.17"),
    ("--lambda0", "0.3", "--lambda1", "2.0", "--method", "mdfl", "--penalty", "log"),
    ("--lambda0", "0.3", "--lambda1", "2.0", "--method", "l1"),
    ("--lambda0", "0.2", "--lambda1", "1.5", "--penalty", "rational", "--max-iter", "3",
     "--tol", "1e-300"),
    ("--lambda0", "0", "--lambda1", "1.5"),
)


def weight(rng):
    """0 one time in five, else a weight between 0.01 and 3."""
    return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 3.0))


def degree(rng, lam):
    """0 one time in five, else up to twice the a that spends the whole
    convexity budget on lam, so that some solves run outside it."""
    return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 2.0)) / max(lam, 0.1)


def random_signal(rng):
    """Steps plus noise, of a length from SIZES, with -0.0 and 0.0 samples."""
    n = int(rng.choice(SIZES))
    y = np.cumsum(rng.normal(0.0, 2.0, n) * (rng.random(n) < 0.1)) + rng.normal(0.0, 0.5, n)
    y[rng.random(n) < 0.1] = -0.0
    y[rng.random(n) < 0.05] = 0.0
    return y


def random_solves(h):
    rng = np.random.default_rng(0)
    for _ in range(SOLVES):
        y = random_signal(rng)
        lam0, lam1 = weight(rng), weight(rng)
        cfg = CncConfig(lam0, lam1,
                        PenaltySpec(str(rng.choice(KINDS)), degree(rng, lam0)),
                        PenaltySpec(str(rng.choice(KINDS)), degree(rng, lam1)),
                        max_iter=int(rng.choice(CAPS)), tol=float(rng.choice(TOLS)),
                        allow_nonconvex=True)
        result = solve(y, cfg)
        h.update(result.x.tobytes())
        h.update(result.objective_history.tobytes())
        h.update(repr((result.iterations, result.converged, result.certificate.hex(),
                       result.polishes)).encode())


def penalty_spec(rng, lam):
    """A kind at random, with a random degree or, one time in two, an edge
    degree."""
    kind = str(rng.choice(KINDS))
    if rng.random() < 0.5:
        return PenaltySpec(kind, degree(rng, lam))
    edges = EDGE_DEGREES[:-1] if kind == "atan" else EDGE_DEGREES
    return PenaltySpec(kind, float(rng.choice(edges)))


def penalty_functions(h):
    rng = np.random.default_rng(1)
    with np.errstate(all="ignore"):  # a*|x| overflows at the edge degrees
        for _ in range(PENALTY_DRAWS):
            y = random_signal(rng)
            x = y + rng.normal(0.0, 0.3, y.size) * (rng.random(y.size) < 0.5)
            lam0, lam1 = weight(rng), weight(rng)
            cfg = CncConfig(lam0, lam1, penalty_spec(rng, lam0), penalty_spec(rng, lam1),
                            allow_nonconvex=True)
            for spec in (cfg.penalty0, cfg.penalty1):
                for arg in (x, x[1:] - x[:-1]):
                    h.update(spec.value(arg).tobytes())
                    h.update(spec.residual_deriv(arg).tobytes())
                h.update(repr((spec.value(float(x[0])), spec.residual_deriv(float(x[0])))).encode())
            h.update(objective(x, y, cfg).hex().encode())
            h.update(majorized_input(x, y, cfg).tobytes())


def sweep_table(h):
    public = cli.solve

    def recording(y, cfg):
        result = public(y, cfg)
        h.update(result.x.tobytes())
        h.update(result.objective_history.tobytes())
        h.update(repr((result.certificate.hex(), result.polishes)).encode())
        return result

    cli.solve = recording
    try:
        rows = cli.sweep_sigma([0.25, 0.5, 1.0], 15, 0, 0.25, "atan", list(cli.METHODS))
    finally:
        cli.solve = public
    h.update(repr(rows).encode())


def denoise_runs(h):
    with tempfile.TemporaryDirectory() as tmp:
        noisy, clean = Path(tmp, "noisy.txt"), Path(tmp, "clean.txt")
        for path, sigma in ((noisy, "0.5"), (clean, "0")):
            if cli.main(["generate", "--output", str(path), "--default", "--sigma", sigma,
                         "--seed", "3"]) != 0:
                raise SystemExit("cli generate failed")
        for k, flags in enumerate(DENOISE_FLAGS):
            out = Path(tmp, f"out{k}.txt")
            code = cli.main(["denoise", str(noisy), str(out), "--reference", str(clean), *flags])
            h.update(repr(code).encode())
            h.update(out.read_bytes())
            meta = Path(f"{out}.json").read_bytes().splitlines(keepends=True)
            h.update(b"".join(line for line in meta if b'"tvd_backend"' not in line))


SECTIONS = (("random solves", random_solves), ("sweep table", sweep_table),
            ("denoise runs", denoise_runs), ("penalty functions", penalty_functions))


class Tee:
    """Feeds each update to every one of its hashers."""

    def __init__(self, *hashers):
        self.hashers = hashers

    def update(self, data):
        for h in self.hashers:
            h.update(data)


def digest():
    """The sha256 of every section's bytes in turn, and one of each
    section's own, in the order of SECTIONS."""
    total, parts = hashlib.sha256(), []
    for name, section in SECTIONS:
        own = hashlib.sha256()
        section(Tee(total, own))
        parts.append((name, own.hexdigest()))
    return total.hexdigest(), parts


def report(backend, total, parts):
    """The backend's digest, then one line per section."""
    print(f"{backend:<8}{total}", flush=True)
    for name, hexdigest in parts:
        print(f"  {name:<18}{hexdigest}", flush=True)


def main():
    c, parts = ("unavailable: the library did not load", []) if prox._tvd_c is None else digest()
    report("c", c, parts)
    prox._tvd_c = None
    python, parts = digest()
    report("python", python, parts)
    return 0 if c == python else 1


if __name__ == "__main__":
    raise SystemExit(main())
