"""Parameterized sparsity-inducing penalties and their smooth concave residuals.

Every penalty phi(x; a) here is symmetric, strictly increasing and concave on
the positive axis, has unit slope at the origin, and second derivative bounded
below by -a.  The parameter a >= 0 sets the degree of non-convexity; a = 0
recovers the absolute value for every kind.  The residual s(x; a) =
phi(x; a) - |x| is twice continuously differentiable (including at 0) and
concave with -a <= s'' <= 0, which is what makes the tangent-line majorizer
in :meth:`PenaltySpec.majorizer` valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import prox as _prox
from .prox import _as_float, _check_nonneg

KINDS = ("l1", "log", "atan", "rational")

_SQRT3 = np.sqrt(3.0)

# From u = a*|x| = 2**56 on, 1 + 0.25*u rounds to 0.25*u (and 1 + u to u),
# so every kind's s'(x) rounds to exactly -sign(x); from about u = 1e154
# on, the squares in the atan and rational formulas overflow, and past the
# largest float so does u itself, and the formulas give NaN.  So past this
# limit s' is taken as -sign(x), which changes no bit of a finite result.
_U_LIMIT = 2.0**56

# Past this a, -4*a in the atan s' overflows and s'(0) reads NaN.
_ATAN_A_MAX = float(np.finfo(float).max) / 4.0


def _match(out, like):
    """Return a float for scalar input, the array otherwise."""
    ndim = getattr(like, "ndim", None)
    if ndim == 0 or (ndim is None and np.isscalar(like)):
        return out.item()
    return out


@dataclass(frozen=True)
class PenaltySpec:
    """Selects a sparsity penalty: kind plus non-convexity degree ``a``.

    ``a`` has units of 1/amplitude.  Any kind with a = 0 is the absolute
    value, so construction makes it "l1", and "l1" gets a = 0: every formula
    chooses by kind alone.  A subnormal ``a`` is rejected: the scale
    2 / (a*sqrt(3)) of "atan" overflows there.  So is an "atan" ``a`` above
    a quarter of the largest float, where the factor -4*a of its s'
    overflows.
    """

    kind: str = "l1"
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        a = _check_nonneg(self.a, "penalty parameter a")
        if 0.0 < a < np.finfo(float).tiny:
            raise ValueError(f"penalty parameter a must be 0 or a normal float, got {self.a!r}")
        if self.kind == "atan" and a > _ATAN_A_MAX:
            raise ValueError(f"atan penalty parameter a must be <= {_ATAN_A_MAX!r}, got {a!r}")
        if self.kind == "l1" or a == 0.0:
            object.__setattr__(self, "kind", "l1")
            a = 0.0
        object.__setattr__(self, "a", a)

    def value(self, x):
        """Penalty value phi(x; a), elementwise; phi(0) = 0 and phi(-x) = phi(x).

        With the compiled module one call of its ``penalty_map``, which
        finishes phi in C with numpy's own loops; see :meth:`_map`."""
        return _match(self._map(x, 0), x)

    @np.errstate(over="ignore", invalid="ignore")
    def residual(self, x):
        """Smooth concave part s(x; a) = phi(x; a) - |x|.

        Computed from closed forms per kind rather than as a numerical
        difference, which would cancel catastrophically near 0.  Where a*|x|
        overflows, phi < 1420/a is below half an ulp of |x|, so s is -|x|.
        """
        xa = _as_float(x, "x")
        a = self.a
        if self.kind == "l1":
            return _match(np.zeros_like(xa), x)
        ax = np.abs(xa)
        u = a * ax
        if self.kind == "log":
            # log1p(u) is within a factor two of u here, so the subtraction
            # is exact and the result carries no cancellation error.
            out = (np.log1p(u) - u) / a
        elif self.kind == "atan":
            out = ((2.0 / _SQRT3) * np.arctan(_SQRT3 * u / (2.0 + u)) - u) / a
        else:  # rational; where a*x*x overflows, the quotient goes first
            out = -(0.5 * a * xa * xa) / (1.0 + 0.5 * u)
            out = np.where(np.isfinite(out), out, -ax * (0.5 * u / (1.0 + 0.5 * u)))
        return _match(np.where(np.isinf(u), -ax, out), x)

    def residual_deriv(self, x):
        """Derivative s'(x; a); odd, continuous, s'(0) = 0, |s'| < 1 up to
        rounding."""
        return _match(self._map(x, 1), x)

    # _phi and _slope hold every part of phi and s' that rounds exactly in
    # IEEE arithmetic; ``algebra`` in ``_kernels.c`` ports both per sample.
    # _finish applies numpy's log1p and arctan, whose SIMD versions round
    # differently from the C library's; ``finish`` in ``_kernels.c``, which
    # the module's ``penalty_map`` and ``mm_solve`` run, calls the same
    # numpy loops.

    def _map(self, x, slope):
        """phi (slope 0), :meth:`_finish` of :meth:`_phi`, or s' (slope 1),
        :meth:`_slope`, of x as an aligned, C-contiguous float array of at
        least one dimension: with the compiled module one call of its
        ``penalty_map``, which gives the bits of those references."""
        x = _as_float(x, "x")
        if x.ndim == 0:
            x = x.reshape(1)
        lib = _prox._tvd_c
        if lib is None:
            return self._slope(x) if slope else self._finish(self._phi(x))
        return lib.penalty_map(KINDS.index(self.kind), self.a, x, slope)

    # Past the largest float, a*|x| overflows; like the compiled maps,
    # the references then warn of nothing.
    @np.errstate(over="ignore", invalid="ignore")
    def _phi(self, x):
        """phi(x; a) of a float array x of at least one dimension, except
        that for "log" and "atan" it is the argument of their
        transcendental, which :meth:`_finish` applies."""
        ax = np.abs(x)
        a = self.a
        if self.kind == "l1":
            return ax
        u = a * ax
        if self.kind == "log":
            return u
        if self.kind == "atan":
            # Where sqrt(3)*u overflows, the quotient reads inf, or NaN
            # where u is inf; its limit sqrt(3) is taken there.
            v = _SQRT3 * u
            return np.where(np.isinf(v), _SQRT3, v / (2.0 + u))
        # rational; where 0.5*a*|x| overflows, the quotient reads 0, or NaN
        # where |x| is inf; its limit 2/a is taken there.
        w = 0.5 * a * ax
        return np.where(np.isinf(w), 2.0 / a, ax / (1.0 + w))

    @np.errstate(over="ignore", invalid="ignore")
    def _slope(self, x):
        """s'(x; a) of a float array x of at least one dimension.  Past
        _U_LIMIT the formula's value is computed and discarded, as in the
        select of ``algebra`` in ``_kernels.c``."""
        a = self.a
        if self.kind == "l1":
            return np.zeros_like(x)
        u = a * np.abs(x)
        if self.kind == "log":
            slope = -a * x / (1.0 + u)
        elif self.kind == "atan":
            # Difference of two arctangents folded into one; avoids
            # cancellation for small a*|x|.
            slope = -4.0 * a * x * (1.0 + u) / (3.0 + (1.0 + 2.0 * u) ** 2)
        else:  # rational
            slope = -a * x * (1.0 + 0.25 * u) / (1.0 + 0.5 * u) ** 2
        return np.where(u > _U_LIMIT, -np.sign(x), slope)

    @np.errstate(over="ignore", invalid="ignore")
    def residual_deriv2(self, x):
        """Second derivative s''(x; a), even, in [-a, 0]: the curvature of
        the polish in :func:`cncflsa.cnc.solve`, whose compiled twin is
        ``curvature`` in ``_kernels.c``.  Past _U_LIMIT it is taken as its
        limit 0; from there on |s''| < a*2**-112."""
        x = _as_float(x, "x")
        a = self.a
        if self.kind == "l1":
            return _match(np.zeros_like(x), x)
        u = a * np.abs(x)
        if self.kind == "log":
            v = 1.0 + u
            curv = -a / (v * v)
        elif self.kind == "atan":
            # -a*(1 + 2u)/(1 + u + u**2)**2, with 4*(1 + u + u**2) = 3 + (1 + 2u)**2
            # as in the slope.
            v = 1.0 + 2.0 * u
            w = 3.0 + v * v
            curv = -16.0 * a * v / (w * w)
        else:  # rational
            v = 1.0 + 0.5 * u
            curv = -a / (v * v * v)
        return _match(np.where(u > _U_LIMIT, 0.0, curv), x)

    def _finish(self, phi):
        """phi from :meth:`_phi`, computed in place."""
        a = self.a
        if self.kind == "log":
            np.log1p(phi, out=phi)
            phi /= a
        elif self.kind == "atan":
            np.arctan(phi, out=phi)
            phi *= 2.0 / (a * _SQRT3)
        return phi

    def majorizer(self, x, v):
        """Tangent-line majorizer |x| + s'(v)(x - v) + s(v).

        Dominates phi everywhere and touches it at x = v, because the tangent
        line to the concave residual s at v lies above s.
        """
        x = _as_float(x, "x")
        out = np.abs(x) + self.residual_deriv(v) * (x - v) + self.residual(v)
        return _match(out, x)
