"""Exact proximal kernels for fused-lasso denoising.

Soft thresholding, the first-difference operator and its adjoint, exact 1-D
total variation denoising in worst-case linear time, the two-step fused
lasso solve built from them, and subgradient-optimality oracles, one of
which, :func:`fused_lasso_optimality_residual`, stops and certifies every
:func:`cncflsa.cnc.solve`.

The TV kernel has a compiled backend (``_kernels.c``, a CPython extension
module built on first import and cached in ``__pycache__``) and a
pure-Python reference that it matches bit for bit and falls back to;
``TVD_BACKEND`` names the one in use.  The module has eight entries, seven
called by one public step after its own input checks and each matching
its Python reference bit for bit; all follow the one switch ``_tvd_c``
and read only aligned, C-contiguous float64 arrays, which ``_as_float``
makes of any input, copying it unless it is one already:

- ``tvd``, by :func:`tvd`;
- ``soft_threshold``, by :func:`soft_threshold`;
- ``all_finite``, by :func:`as_signal` and every other finiteness check;
- ``penalty_map``, by ``PenaltySpec.value`` (finished with numpy's own
  ``arctan``/``log1p`` loops, which the module's import finds) and
  ``PenaltySpec.residual_deriv``;
- ``shifted_input``, by :func:`cncflsa.cnc.majorized_input`;
- ``mm_solve``, by :func:`cncflsa.cnc.solve` for every update after its
  start; without the module the loop chains the public functions;
- ``total``, numpy's pairwise sum of an array or of the squares of a
  difference, by :func:`_total`, the one home of the public sums: the three
  of :func:`cncflsa.cnc.objective` and that of
  :func:`cncflsa.signalgen.rmse`;
- ``loops``, by the probe in ``_load``, which compares what the module's
  calls of numpy's loops give with numpy's own calls before it is used.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import shutil
import zlib

import numpy as np

_C_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
# Bit equality with the Python kernel needs every operation rounded on its
# own: no fused multiply-add (-ffp-contract=off) and no -ffast-math.
# -fno-trapping-math changes no rounding; it lets -O3 turn the selects of
# the MM step's maps into vector blends, which gcc otherwise refuses as
# control flow in the loop.  -march=native stays out because the cached
# module must run on any x86-64; _kernels.c builds its wider clones
# itself, and the loader picks the one this CPU runs.
_C_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-trapping-math")

_FLOAT64 = np.dtype(float)


def _as_float(x, name):
    """x as a native float64 array, copied unless it is aligned,
    C-contiguous and writeable, rejecting complex input, which
    ``np.asarray`` would make real with only a ComplexWarning."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        x = np.asarray(x)
        if x.dtype.kind == "c":
            raise ValueError(f"{name} must be real, got dtype {x.dtype}")
        x = np.asarray(x, dtype=float)
    return x if x.flags.carray else x.copy()


def as_signal(x, name="signal"):
    """Validate and return x as a 1-D float array with finite entries, as
    :func:`_as_float` gives it."""
    out = _as_float(x, name)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    if out.size < 1:
        raise ValueError(f"{name} must contain at least one sample")
    if not _all_finite(out):
        raise ValueError(f"{name} contains non-finite samples")
    return out


def _all_finite(a):
    """Whether every entry of the aligned, C-contiguous float64 array a is
    finite: the compiled module's exact per-element check, or
    ``np.isfinite`` on the Python backend."""
    if _tvd_c is not None:
        return _tvd_c.all_finite(a)
    return bool(np.isfinite(a).all())


def _total(a, b=None):
    """``np.add.reduce(a)`` of the aligned, C-contiguous float64 vector a,
    or, given b, a vector of a's length, that of the squares ``d = a - b;
    d *= d``, as a float: the compiled module's ``total``, or those numpy
    expressions on the Python backend.  Neither raises a numpy warning,
    where a value overflows or a sum reads inf - inf."""
    lib = _tvd_c
    if lib is not None:
        return lib.total(a) if b is None else lib.total(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        if b is not None:
            a = a - b
            a *= a
        return float(np.add.reduce(a))


def _as_pair(a, b, name_a, name_b):
    """:func:`as_signal` of two signals that must have the same length."""
    a, b = as_signal(a, name_a), as_signal(b, name_b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def _whole(value):
    """int(value) for a whole number, else None (a fraction, inf, NaN, a string)."""
    try:
        return int(value) if int(value) == value else None
    except (OverflowError, ValueError):
        return None


def _check_nonneg(value, name):
    """Return float(value), rejected unless finite and >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _check_pos(value, name):
    """Return float(value), rejected unless finite and > 0."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def soft_threshold(x, lam):
    """Shrink toward zero by lam, flattening the band |x| <= lam to exactly 0.

    x of any shape goes through the compiled module's ``soft_threshold``
    when it is loaded, which gives the bits of the numpy expression, its
    reference on the Python backend."""
    lam = _check_nonneg(lam, "lam")
    xa = _as_float(x, "x")
    if not _all_finite(xa):
        raise ValueError("x contains non-finite samples")
    if _tvd_c is not None:
        out = _tvd_c.soft_threshold(xa, lam)
    else:
        out = np.sign(xa) * np.maximum(np.abs(xa) - lam, 0.0)
    return float(out) if xa.ndim == 0 else out


def diff(x):
    """First differences: out[n] = x[n+1] - x[n]; requires len(x) >= 2."""
    x = as_signal(x, "x")
    if x.size < 2:
        raise ValueError("diff requires at least 2 samples")
    return np.diff(x)


def diff_adjoint(z):
    """Adjoint of :func:`diff`: maps length N-1 back to length N.

    Satisfies <diff(x), z> == <x, diff_adjoint(z)> exactly in exact
    arithmetic.
    """
    return _diff_adjoint(as_signal(z, "z"))


def _diff_adjoint(z):
    """:func:`diff_adjoint` of a validated float array z."""
    n = z.size
    out = np.empty(n + 1)
    out[0] = -z[0]
    out[-1] = z[-1]
    if n > 1:
        out[1:-1] = z[:-1] - z[1:]
    return out


def tvd(y, lam):
    """Exact minimizer of 0.5*||y - x||^2 + lam * sum |x[n+1] - x[n]|.

    Direct non-iterative solve in worst-case linear time (see
    :func:`_tvd_python`) of finite 1-D samples y for a weight lam >= 0:
    lam = 0 returns a copy of y, and a lam large enough the constant mean
    of y.  Runs the compiled kernel when ``TVD_BACKEND == "c"`` and the
    pure-Python reference otherwise; both return the same bits.
    """
    y = as_signal(y, "y")
    lam = _check_nonneg(lam, "lam")
    if y.size == 1 or lam == 0.0:
        return y.copy()
    if _tvd_c is None:
        return _tvd_python(y, lam)
    return _tvd_c.tvd(y, lam)


def _tvd_python(y, lam):
    """Pure-Python TV denoising kernel: the reference and the fallback.

    Takes a validated y with at least 2 samples and lam > 0.  The forward
    pass maintains the piecewise-linear derivative of the running
    optimal-cost function as a list of breakpoints and clamps it between the
    lower bound -lam and the upper bound +lam, recording the clamp locations
    for every sample; the backward pass recovers the solution by clipping
    each sample between its recorded bounds.  Every breakpoint enters and
    leaves the active list at most once, so the worst case is linear in N.
    ``cncflsa_tvd`` in ``_kernels.c`` ports it line for line.
    """
    n = y.size
    ys = y.tolist()
    cap = 2 * n
    pos = [0.0] * cap
    d_a = [0.0] * cap
    d_b = [0.0] * cap
    head, tail = n, n - 1
    lo_clamp = [0.0] * (n - 1)
    hi_clamp = [0.0] * (n - 1)

    # Leftmost / rightmost affine pieces of the current derivative.
    a_left, b_left = 1.0, -ys[0]
    a_right, b_right = 1.0, -ys[0]

    for i in range(n - 1):
        # Where the derivative reaches -lam, scanning from the left.
        a, b = a_left, b_left
        k = head
        while k <= tail and a * pos[k] + b < -lam:
            a += d_a[k]
            b += d_b[k]
            k += 1
        lo = (-lam - b) / a
        head = k - 1
        pos[head] = lo
        d_a[head] = a
        d_b[head] = b + lam

        # Where the derivative reaches +lam, scanning from the right.  The
        # crossing never lies left of the fresh lower clamp, so that knot is
        # never consumed.
        a, b = a_right, b_right
        k = tail
        while k > head and a * pos[k] + b > lam:
            a -= d_a[k]
            b -= d_b[k]
            k -= 1
        hi = (lam - b) / a
        tail = k + 1
        pos[tail] = hi
        d_a[tail] = -a
        d_b[tail] = lam - b

        lo_clamp[i] = lo
        hi_clamp[i] = hi

        nxt = ys[i + 1]
        a_left, b_left = 1.0, -nxt - lam
        a_right, b_right = 1.0, -nxt + lam

    # Root of the final derivative gives the last sample.
    a, b = a_left, b_left
    k = head
    while k <= tail and a * pos[k] + b < 0.0:
        a += d_a[k]
        b += d_b[k]
        k += 1
    x = np.empty(n)
    x[n - 1] = -b / a
    for i in range(n - 2, -1, -1):
        xi = x[i + 1]
        if xi < lo_clamp[i]:
            xi = lo_clamp[i]
        elif xi > hi_clamp[i]:
            xi = hi_clamp[i]
        x[i] = xi
    return x


def _cache_path():
    """Where the compiled module is cached: ``__pycache__`` beside the C
    source, under a name whose digest covers the source, the flags, the
    interpreter's extension suffix and numpy's version, so that an edited
    source, another interpreter or another numpy never loads a stale
    module."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    with open(_C_SOURCE, "rb") as fh:
        tag = zlib.crc32(" ".join((*_C_FLAGS, suffix, np.__version__)).encode(),
                         zlib.crc32(fh.read()))
    return os.path.join(os.path.dirname(_C_SOURCE), "__pycache__", f"_kernels-{tag:08x}{suffix}")


def _build():
    """Path of the compiled module, compiled into ``__pycache__`` on a miss.

    The compiler writes a per-process temporary file that ``os.replace``
    moves into place, so concurrent first imports cannot race.  Raises
    OSError when there is no C compiler, the compile fails (say, without
    the Python or numpy headers) or the directory is not writable.
    """
    path = _cache_path()
    if os.path.exists(path):
        return path
    # A cache hit imports nothing the CLI does not.
    import subprocess
    import sysconfig

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    headers = sysconfig.get_paths()
    includes = [f"-I{d}" for d in (headers["include"], headers["platinclude"], np.get_include())]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run([cc, *_C_FLAGS, *includes, "-o", tmp, _C_SOURCE],
                              capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} failed: {proc.stderr.decode(errors='replace')}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load(path):
    """A fresh ``cncflsa._kernels`` module from the file at path, whose
    import finds numpy's loops, probed here: its ``loops`` must give the
    bytes of numpy's own calls.  Raises ImportError when the module cannot
    be loaded, lacks ``loops``, or a loop is missing or fails the probe."""
    loader = importlib.machinery.ExtensionFileLoader("cncflsa._kernels", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(loader.name, path, loader=loader))
    loader.exec_module(module)
    if not hasattr(module, "loops"):
        raise ImportError(f"{path} has no loops entry")
    # +-0.0 among the values, -0.0 kept among the magnitudes (log1p's
    # domain), at lengths within and beyond numpy's pairwise-sum blocks of
    # 8 and 128.
    values = np.arange(1000.0) * 0.37
    values[1::2] *= -1.7
    values[::7] = 0.0
    values[3::7] = -0.0
    magnitudes = np.abs(values)
    magnitudes[3::7] = -0.0
    for n in (0, 1, 3, 7, 8, 9, 100, 128, 129, 1000):
        v, m = values[:n], magnitudes[:n]
        want = (np.arctan(m), np.log1p(m), np.add.reduce(v))
        if any(np.asarray(got, dtype=float).tobytes() != np.asarray(w).tobytes()
               for got, w in zip(module.loops(v, m), want)):
            raise ImportError("numpy's float64 loops do not give numpy's bytes")
    return module


# The compiled module's entries; this module's docstring names the caller
# of each.
_ENTRIES = ("tvd", "penalty_map", "mm_solve", "all_finite", "soft_threshold", "shifted_input",
            "loops", "total")


def _select_backend():
    """The compiled module and ``"c"``, or ``(None, "python")`` when it
    cannot be built or loaded, lacks one of its ``_ENTRIES``, or one of
    numpy's loops that its ``mm_solve`` calls cannot be found or does not
    give numpy's own bytes in ``_load``'s probe."""
    try:
        module = _load(_build())
    except (OSError, ImportError):
        return None, "python"
    if not all(hasattr(module, name) for name in _ENTRIES):
        return None, "python"
    return module, "c"


# The one backend switch: the compiled module, or None for the Python
# references of all its entries.
_tvd_c, TVD_BACKEND = _select_backend()


def tvd_optimality_residual(y, x, lam):
    """Maximum subgradient-optimality violation of x for the TV problem.

    Reconstructs the dual variables u from x - y = -lam * diff_adjoint(u)
    and measures how far u is from being a valid subgradient of
    lam * ||diff(x)||_1: |u| must not exceed 1, u must equal sign of the
    corresponding nonzero difference, and the residual y - x must sum to
    zero.  Returns 0 (up to roundoff) iff x is the minimizer.
    """
    y, x = _as_pair(y, x, "y", "x")
    lam = _check_nonneg(lam, "lam")
    r = y - x
    if lam == 0.0:
        return float(np.max(np.abs(r)))
    p = np.cumsum(r)
    worst = abs(p[-1]) / lam
    if y.size == 1:
        return float(worst)
    u = -p[:-1] / lam
    d = np.diff(x)
    jump = d != 0.0
    if np.any(jump):
        worst = max(worst, np.max(np.abs(u[jump] - np.sign(d[jump]))))
    if np.any(~jump):
        worst = max(worst, max(0.0, np.max(np.abs(u[~jump])) - 1.0))
    return float(worst)


def fused_lasso_l1(y, lam0, lam1):
    """Exact fused lasso solve: soft threshold the TV-denoised signal.

    Minimizes 0.5*||y - x||^2 + lam0*||x||_1 + lam1*||diff(x)||_1.
    """
    lam0 = _check_nonneg(lam0, "lam0")
    lam1 = _check_nonneg(lam1, "lam1")
    return soft_threshold(tvd(y, lam1), lam0)


def fused_lasso_optimality_residual(y, x, lam0, lam1):
    """Maximum subgradient-optimality violation of x for the fused lasso.

    Certifies y - x = lam0*g + lam1*diff_adjoint(u) for some g in the
    subdifferential of ||x||_1 and u in the subdifferential of
    ||diff(x)||_1.  Fixed components of g and u are pinned by the signs of
    nonzero entries; the free ones are chased by exact interval propagation
    along the chain of cumulative sums.  Violations are reported in the
    dimensionless units of u (or of g when lam1 = 0).  Where an
    intermediate overflows and a gap of the chain reads NaN (inf - inf),
    nothing is certified and the residual is inf.  The chain runs on
    Python floats, each operation rounding as numpy's own; ``oracle`` in
    ``_kernels.c``, on which the compiled MM loop stops, runs the same
    operations in the same order.
    """
    y, x = _as_pair(y, x, "y", "x")
    lam0 = _check_nonneg(lam0, "lam0")
    lam1 = _check_nonneg(lam1, "lam1")
    r = y - x

    if lam0 == 0.0 and lam1 == 0.0:
        return float(np.max(np.abs(r)))
    if lam1 == 0.0:
        g = r / lam0
        nz = x != 0.0
        worst = 0.0
        if np.any(nz):
            worst = np.max(np.abs(g[nz] - np.sign(x[nz])))
        if np.any(~nz):
            worst = max(worst, max(0.0, np.max(np.abs(g[~nz])) - 1.0))
        return float(worst)
    if lam0 == 0.0:
        return tvd_optimality_residual(y, x, lam1)

    # memoryviews hand out Python floats without a list of N of them.
    r, x = memoryview(r), memoryview(x)
    n = len(x)
    # Reachable interval for the cumulative sum lam0 * (g_0 + ... + g_k).
    lo = hi = 0.0
    total = 0.0
    worst = 0.0
    for k in range(n):
        total += r[k]
        if x[k] > 0.0:
            lo += lam0
            hi += lam0
        elif x[k] < 0.0:
            lo -= lam0
            hi -= lam0
        else:
            lo -= lam0
            hi += lam0
        # x[k + 1] - x[k] has the sign of their comparison (subnormals
        # included), so the jump's sign needs no difference.
        if k == n - 1:
            c_lo = c_hi = total
        elif x[k + 1] > x[k]:
            c_lo = c_hi = total + lam1
        elif x[k + 1] < x[k]:
            c_lo = c_hi = total - lam1
        else:
            c_lo, c_hi = total - lam1, total + lam1
        below, above = c_lo - hi, lo - c_hi
        if below != below or above != above:
            return math.inf
        gap = max(0.0, below, above)
        worst = max(worst, gap / lam1)
        if gap > 0.0:
            point = c_lo if hi < c_lo else c_hi
            lo = hi = point
        else:
            lo = max(lo, c_lo)
            hi = min(hi, c_hi)
    return float(worst)
