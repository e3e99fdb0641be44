"""Exact proximal kernels for fused-lasso denoising.

Soft thresholding, the first-difference operator and its adjoint, exact 1-D
total variation denoising in worst-case linear time, the two-step fused
lasso solve built from them, and subgradient-optimality oracles used to
certify solutions independently of the solvers.

The TV kernel has a compiled backend (``_kernels.c``, built on first import
and cached in ``__pycache__``) and a pure-Python reference that it matches
bit for bit and falls back to; ``TVD_BACKEND`` names the one in use.  The
same library holds the compiled MM loop of :mod:`cncflsa.cnc`, which
follows the same switch and calls numpy's own float64 loops, resolved and
probed here once; without it the loop chains the public functions.  It also
holds the per-sample maps of ``PenaltySpec.value`` and
``PenaltySpec.residual_deriv``, which follow the same switch.
"""

from __future__ import annotations

import ctypes
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
# library must run on any x86-64; _kernels.c builds its wider clones
# itself, and the loader picks the one this CPU runs.
_C_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-trapping-math")


def as_signal(x, name="signal"):
    """Validate and return a 1-D float array with finite entries."""
    out = np.asarray(x, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {out.shape}")
    if out.size < 1:
        raise ValueError(f"{name} must contain at least one sample")
    if not _all_finite(out):
        raise ValueError(f"{name} contains non-finite samples")
    return out


def _all_finite(a):
    """Whether every entry of the float array a is finite, exactly.

    The sum of the squares proves it when it is finite: an inf or NaN entry
    makes it inf or NaN, and no negative term can cancel an inf.  Only when
    it is not finite, by overflow or by a non-finite entry, does
    ``np.isfinite`` decide, so finite input costs one dot product (the
    ``prox.as_signal`` rows of ``tools/bench_layers.py``).  ``np.vdot``
    flattens any shape, so it is never a matrix product, and unlike
    ``ndarray.dot`` it does not warn when the sum overflows.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _as_pair(a, b, name_a, name_b):
    """:func:`as_signal` of two signals that must have the same length."""
    a, b = as_signal(a, name_a), as_signal(b, name_b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def _check_nonneg(value, name):
    """Return float(value), rejected unless finite and >= 0."""
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def soft_threshold(x, lam):
    """Shrink toward zero by lam, flattening the band |x| <= lam to exactly 0."""
    lam = _check_nonneg(lam, "lam")
    xa = np.asarray(x, dtype=float)
    if not _all_finite(xa):
        raise ValueError("x contains non-finite samples")
    out = np.sign(xa) * np.maximum(np.abs(xa) - lam, 0.0)
    if xa.ndim == 0:
        return float(out)
    return out


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
    :func:`_tvd_python`).  Runs the compiled kernel when
    ``TVD_BACKEND == "c"`` and the pure-Python reference otherwise; both
    return the same bits.

    Parameters
    ----------
    y : array_like
        Input samples (1-D, finite).
    lam : float
        Regularization weight, >= 0.  lam = 0 returns a copy of y; for
        lam large enough the output is the constant mean of y.

    Returns
    -------
    numpy.ndarray
        The unique minimizer, same length as y.
    """
    y = np.ascontiguousarray(as_signal(y, "y"))
    lam = _check_nonneg(lam, "lam")
    if y.size == 1 or lam == 0.0:
        return y.copy()
    if _tvd_c is None:
        return _tvd_python(y, lam)
    # work is the kernel's scratch of 8*N doubles, alive until it returns.
    x, work = np.empty(y.size), np.empty(8 * y.size)
    _tvd_c.cncflsa_tvd(_address(y), y.size, lam, _address(x), _address(work))
    return x


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


def _build():
    """Path of the compiled kernel, compiled into ``__pycache__`` on a miss.

    The file name carries a digest of the C source and the flags, so an
    edited source never loads a stale library.  The compiler writes a
    per-process temporary file that ``os.replace`` moves into place, so
    concurrent first imports cannot race.  Raises OSError when there is no
    C compiler, the compile fails or the directory is not writable.
    """
    with open(_C_SOURCE, "rb") as fh:
        tag = zlib.crc32(" ".join(_C_FLAGS).encode(), zlib.crc32(fh.read()))
    cache = os.path.join(os.path.dirname(_C_SOURCE), "__pycache__")
    path = os.path.join(cache, f"_kernels-{tag:08x}.so")
    if os.path.exists(path):
        return path
    import subprocess  # a cache hit imports nothing the CLI does not

    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise OSError("no C compiler on PATH")
    os.makedirs(cache, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        proc = subprocess.run([cc, *_C_FLAGS, "-o", tmp, _C_SOURCE], capture_output=True)
        if proc.returncode != 0:
            raise OSError(f"{cc} failed: {proc.stderr.decode(errors='replace')}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


class _UFuncHead(ctypes.Structure):
    """The head of numpy's public ``PyUFuncObject`` (``ufuncobject.h``), up
    to ``ntypes``.  Only ``functions`` is ever dereferenced."""

    _fields_ = [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p),
                ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
                ("identity", ctypes.c_int), ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.c_void_p), ("ntypes", ctypes.c_int)]


class _ArrayHead(ctypes.Structure):
    """The head of numpy's public ``PyArrayObject_fields``
    (``ndarraytypes.h``), up to ``data``."""

    _fields_ = [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p),
                ("data", ctypes.c_void_p)]


def _address(array):
    """``array.ctypes.data``, read from the array's head: about a sixth of
    the cost, since it builds no ctypes view of the array.  The caller
    keeps the array alive while it uses the address."""
    return _ArrayHead.from_address(id(array)).data


def _heads_match_numpy():
    """Whether :func:`_address` gives numpy's own address for fresh arrays,
    views that start inside a buffer, and read-only and empty ones."""
    base = np.arange(24.0)
    readonly = base[3:9]
    readonly.flags.writeable = False
    arrays = (base, base[5:], base[1::3], base.reshape(4, 6)[1:, 2:], readonly, np.empty(0),
              np.zeros(()))
    return all(_address(a) == a.ctypes.data for a in arrays)


def _numpy_loop(ufunc, types):
    """Address of numpy's inner loop of ufunc for types, e.g. ``"d->d"``.

    Raises OSError when the mirror's counts are not the ufunc's own, that
    is when this numpy lays the object out differently."""
    head = _UFuncHead.from_address(id(ufunc))
    if (head.nin, head.nout, head.nargs, head.ntypes) != (
            ufunc.nin, ufunc.nout, ufunc.nargs, ufunc.ntypes):
        raise OSError(f"numpy.{ufunc.__name__} does not match PyUFuncObject")
    return head.functions[ufunc.types.index(types)]


class _NumpyLoops(ctypes.Structure):
    """``struct numpy_loops`` of ``_kernels.c``."""

    _fields_ = [(name, ctypes.c_void_p) for name in ("arctan", "log1p", "add", "vecdot")]


def _loops_match_numpy(loops):
    """Whether each loop, called as ``cncflsa_mm_solve`` calls it, gives the
    bytes of numpy's own call on fixed values with +-0.0 among them, at
    lengths within and beyond numpy's pairwise-sum blocks of 8 and 128."""
    call = ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                            ctypes.c_void_p)
    arctan, log1p, add, vecdot = (call(getattr(loops, name)) for name, _ in loops._fields_)
    ptrs, dims = ctypes.c_void_p * 3, ctypes.c_ssize_t * 5
    values = np.arange(1000.0) * 0.37
    values[1::2] *= -1.7
    values[::7], values[3::7] = 0.0, -0.0
    magnitudes = np.abs(values)  # in the domain of log1p
    magnitudes[3::7] = -0.0
    for n in (0, 1, 3, 7, 8, 9, 100, 128, 129, 1000):
        v = values[:n].copy()
        for loop, ufunc in ((arctan, np.arctan), (log1p, np.log1p)):
            out = magnitudes[:n].copy()
            loop(ptrs(out.ctypes.data, out.ctypes.data), dims(n), dims(8, 8), None)
            if out.tobytes() != ufunc(magnitudes[:n]).tobytes():
                return False
        acc, dot = np.zeros(1), np.zeros(1)
        add(ptrs(acc.ctypes.data, v.ctypes.data, acc.ctypes.data), dims(n), dims(0, 8, 0), None)
        vecdot(ptrs(v.ctypes.data, v.ctypes.data, dot.ctypes.data), dims(1, n),
               dims(0, 0, 0, 8, 8), None)
        if (acc.tobytes(), dot.tobytes()) != (np.add.reduce(v).tobytes(), np.dot(v, v).tobytes()):
            return False
    return True


def _select_backend():
    """The compiled library and ``"c"``, or ``(None, "python")`` when it
    cannot be built or loaded, lacks one of its kernels, one of numpy's
    loops that ``cncflsa_mm_solve`` calls cannot be found or does not give
    numpy's own bytes, or an array's head is not laid out as
    :class:`_ArrayHead` mirrors it.  The library carries those loops as
    ``numpy_loops``."""
    try:
        lib = ctypes.CDLL(_build())
        tvd, solve, penalty = lib.cncflsa_tvd, lib.cncflsa_mm_solve, lib.cncflsa_penalty_map
        loops = _NumpyLoops(_numpy_loop(np.arctan, "d->d"), _numpy_loop(np.log1p, "d->d"),
                            _numpy_loop(np.add, "dd->d"), _numpy_loop(np.vecdot, "dd->d"))
    except (OSError, AttributeError, ValueError):
        return None, "python"
    if not (_loops_match_numpy(loops) and _heads_match_numpy()):
        return None, "python"
    tvd.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_double,
                    ctypes.c_void_p, ctypes.c_void_p)
    tvd.restype = None
    penalty.argtypes = (ctypes.c_int, ctypes.c_double, ctypes.c_void_p, ctypes.c_long,
                        ctypes.c_void_p, ctypes.c_int)
    penalty.restype = None
    solve.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p,
                      *(ctypes.c_double,) * 4, ctypes.c_int, ctypes.c_int, ctypes.c_long,
                      ctypes.c_double, ctypes.c_void_p)
    solve.restype = ctypes.c_long
    lib.numpy_loops = ctypes.byref(loops)
    return lib, "c"


# The one backend switch: the compiled library, or None for the Python
# references of tvd, of the MM loop (cncflsa.cnc._mm_updates) and of the
# penalty maps (cncflsa.penalties.PenaltySpec._map).
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
    dimensionless units of u (or of g when lam1 = 0).
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

    n = x.size
    d = np.diff(x)
    # Reachable interval for the cumulative sum lam0 * (g_0 + ... + g_k).
    lo = hi = 0.0
    total = 0.0
    worst = 0.0
    for k in range(n):
        total += r[k]
        if x[k] != 0.0:
            step = lam0 * np.sign(x[k])
            lo += step
            hi += step
        else:
            lo -= lam0
            hi += lam0
        if k < n - 1:
            if d[k] != 0.0:
                c_lo = c_hi = total + lam1 * np.sign(d[k])
            else:
                c_lo, c_hi = total - lam1, total + lam1
        else:
            c_lo = c_hi = total
        gap = max(0.0, c_lo - hi, lo - c_hi)
        worst = max(worst, gap / lam1)
        if gap > 0.0:
            point = c_lo if hi < c_lo else c_hi
            lo = hi = point
        else:
            lo = max(lo, c_lo)
            hi = min(hi, c_hi)
    return float(worst)
