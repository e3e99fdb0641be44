"""Fused-lasso denoising with non-convex penalties kept globally convex.

The objective is

    F(x) = 0.5*||y - x||^2 + lambda0 * sum phi(x_n; a0)
                           + lambda1 * sum phi([diff(x)]_n; a1)

with phi a parameterized non-convex penalty.  F stays strictly convex as
long as the margin 1 - a0*lambda0 - 4*a1*lambda1 is nonnegative, because the
negative curvature of the penalties (bounded by a0, resp. a1 times the
largest eigenvalue of the squared difference operator, which is below 4)
never overcomes the unit curvature of the data term.  The solver majorizes
each penalty by the absolute value plus the tangent line of its smooth
residual, which turns every update into one exact L1 fused-lasso solve on a
shifted input.  There are no matrix inversions anywhere.  The loop is the
chain of the public :func:`fused_lasso_l1`, :func:`objective` and
:func:`majorized_input`; with the compiled module it runs as one call of
its ``mm_solve``, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prox as _prox
from .penalties import KINDS, PenaltySpec
from .prox import (_as_pair, _check_nonneg, _check_pos, _diff_adjoint, _whole, as_signal,
                   fused_lasso_l1)

# Roundoff tolerance when enforcing margin >= 0 on the convexity boundary.
MARGIN_TOL = 1e-12

# Named parameterizations of :func:`method_params`.
METHODS = ("l1", "mdfl", "cnc")


class ConvexityError(ValueError):
    """Raised when a solve would run outside the certified convex regime."""


@dataclass(frozen=True)
class CncConfig:
    """Full problem parameterization for :func:`solve`.

    lambda0/lambda1 are finite and >= 0; a zero weight drops its penalty
    term, which reduces the inner step to pure TV denoising (lambda0 = 0)
    or pure soft thresholding (lambda1 = 0).  allow_nonconvex disables the
    convexity-margin precondition for experiments outside the certified
    region.  max_iter (a positive integer) caps the MM updates of a solve,
    and tol (finite and > 0) is its stopping tolerance on the change of F
    relative to F; see :func:`solve`.  Frozen, so that construction
    validates every field that a solve reads; ``dataclasses.replace`` makes
    a changed copy.
    """

    lambda0: float
    lambda1: float
    penalty0: PenaltySpec = field(default_factory=PenaltySpec)
    penalty1: PenaltySpec = field(default_factory=PenaltySpec)
    max_iter: int = 50
    tol: float = 1e-9
    allow_nonconvex: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lambda0", _check_nonneg(self.lambda0, "lambda0"))
        object.__setattr__(self, "lambda1", _check_nonneg(self.lambda1, "lambda1"))
        if not isinstance(self.penalty0, PenaltySpec) or not isinstance(self.penalty1, PenaltySpec):
            raise ValueError("penalty0 and penalty1 must be PenaltySpec instances")
        max_iter = _whole(self.max_iter)
        if max_iter is None or max_iter < 1:
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", max_iter)
        object.__setattr__(self, "tol", _check_pos(self.tol, "tol"))


@dataclass
class SolveResult:
    """Solution plus the recorded objective trajectory.

    objective_history[0] is the objective at the initializer and one more
    entry is appended per majorization-minimization update, so its length is
    iterations + 1 and it never increases along the way.
    """

    x: np.ndarray
    objective_history: np.ndarray
    iterations: int
    converged: bool


def convexity_margin_params(lambda0, lambda1, a0, a1):
    """Convexity margin 1 - a0*lambda0 - 4*a1*lambda1 from raw parameters."""
    return 1.0 - float(a0) * float(lambda0) - 4.0 * float(a1) * float(lambda1)


def convexity_margin(cfg: CncConfig) -> float:
    """Convexity margin of a configuration; nonnegative iff strict convexity
    of the objective is guaranteed."""
    return convexity_margin_params(cfg.lambda0, cfg.lambda1, cfg.penalty0.a, cfg.penalty1.a)


def select_a1(lambda0, lambda1, a0):
    """Largest difference-penalty non-convexity a1 that keeps the margin at 0.

    Returns (1 - a0*lambda0) / (4*lambda1), placing the parameters exactly on
    the convexity boundary so sparsity is induced as strongly as possible.
    """
    lambda0 = _check_pos(lambda0, "lambda0")
    lambda1 = _check_pos(lambda1, "lambda1")
    a0 = _check_nonneg(a0, "a0")
    budget = a0 * lambda0
    if budget > 1.0 + MARGIN_TOL:
        raise ValueError(
            f"a0*lambda0 = {budget:.6g} exceeds 1; no nonnegative a1 can keep the problem convex"
        )
    return max(0.0, 1.0 - budget) / (4.0 * lambda1)


def method_params(method, lambda0, lambda1, a0=None, a1=None):
    """Non-convexity degrees (a0, a1) of a named method; given values win.

    "l1" is the plain fused lasso (a0 = a1 = 0).  "mdfl" spends the whole
    convexity budget on amplitudes (a0 = 1/lambda0, a1 = 0).  "cnc" spends
    half of it on amplitudes (a0 = 0.5/lambda0) and the rest on differences
    (a1 from :func:`select_a1`, margin 0).  The boundary rule presumes both
    penalties are active, so with lambda0 = 0 the default a0 is 0, and with
    either weight 0 the default a1 is 0.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if a0 is None:
        share = {"l1": 0.0, "mdfl": 1.0, "cnc": 0.5}[method]
        a0 = share / lambda0 if share and lambda0 > 0 else 0.0
    if a1 is None:
        a1 = 0.0
        if method == "cnc" and lambda0 > 0 and lambda1 > 0:
            a1 = select_a1(lambda0, lambda1, a0)
    return a0, a1


def objective(x, y, cfg: CncConfig) -> float:
    """Penalized objective F(x) for observation y under cfg.

    All three terms, the squares (y - x)**2 and each penalty's values, are
    reduced with numpy's pairwise sum, each dropped before the next is
    evaluated.  ``np.dot`` would call BLAS, whose sum follows the BLAS
    build and its thread count; numpy's own ``add`` loop adds in one fixed
    order, which the compiled ``mm_solve`` calls too.  With one sample the
    difference sum is the 0.0 of an empty sum, and adding it changes no
    bit, because the first two terms never sum to -0.0.
    """
    x, y = _as_pair(x, y, "x", "y")
    r = y - x
    r *= r
    return (0.5 * float(np.add.reduce(r))
            + cfg.lambda0 * float(np.add.reduce(cfg.penalty0.value(x)))
            + cfg.lambda1 * float(np.add.reduce(cfg.penalty1.value(x[1:] - x[:-1]))))


def majorized_input(v, y, cfg: CncConfig):
    """Shifted observation fed to the inner fused-lasso step at iterate v.

    Returns y - lambda0*s0'(v) - lambda1*diff_adjoint(s1'(diff(v))), the
    input for which the L1 fused lasso minimizes the tangent-line majorizer
    of the objective at v.  With the compiled module the two
    ``residual_deriv`` rows are combined in one call of its
    ``shifted_input``, which gives the bits of its reference below.
    """
    v, y = _as_pair(v, y, "v", "y")
    ds0 = cfg.penalty0.residual_deriv(v)
    ds1 = cfg.penalty1.residual_deriv(v[1:] - v[:-1])
    lib = _prox._tvd_c
    if lib is not None:
        return lib.shifted_input(y, cfg.lambda0, ds0, cfg.lambda1, ds1)
    out = y - cfg.lambda0 * ds0
    if ds1.size:
        out -= cfg.lambda1 * _diff_adjoint(ds1)
    return out


def solve(y, cfg: CncConfig) -> SolveResult:
    """Minimize the penalized objective by majorization-minimization.

    Starts from the L1 fused-lasso solution, then repeats: shift the
    observation via :func:`majorized_input`, solve one exact L1 fused lasso
    on it.  Each update decreases the objective.  Stops, converged, after
    the first update that changes F by at most cfg.tol * |prev|, prev being
    F before it, otherwise after cfg.max_iter updates.  The test is
    relative to F alone, so scaling y and the weights by a power of two c
    and the degrees by 1/c scales x by c and F by c**2 exactly, unless a
    value overflows or turns subnormal.

    Raises ConvexityError when the margin is negative and cfg.allow_nonconvex
    is not set.
    """
    y = as_signal(y, "y")
    margin = convexity_margin(cfg)
    if margin < -MARGIN_TOL and not cfg.allow_nonconvex:
        raise ConvexityError(
            f"convexity margin {margin:.6g} is negative; set allow_nonconvex=True "
            "to run outside the certified regime"
        )
    x = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
    f0 = objective(x, y, cfg)
    x, history, converged = _mm_updates(y, majorized_input(x, y, cfg), f0, cfg)
    return SolveResult(
        x=x,
        objective_history=history,
        iterations=history.size - 1,
        converged=converged,
    )


def _mm_updates(y, shifted, f0, cfg):
    """The MM updates of :func:`solve` from the shifted input and the F of
    its start.

    Returns the last iterate, the objective history from f0 on, and whether
    the stopping rule fired.  With the compiled module the updates run in
    one call of its ``mm_solve``, which allocates its scratch, its copy of
    shifted and the history itself; without it they run in
    :func:`_mm_loop_python`, its reference.  Both give the same bits, and
    neither writes y or shifted.
    """
    lib = _prox._tvd_c
    if lib is None:
        return _mm_loop_python(y, shifted, f0, cfg)
    return lib.mm_solve(y, shifted, f0, cfg.lambda0, cfg.lambda1,
                        cfg.penalty0.a, cfg.penalty1.a, KINDS.index(cfg.penalty0.kind),
                        KINDS.index(cfg.penalty1.kind), cfg.max_iter, cfg.tol)


def _mm_loop_python(y, shifted, f0, cfg):
    """The MM updates as the chain of the public functions, the reference
    of ``cncflsa_mm_solve``: each update is :func:`fused_lasso_l1` on the
    shifted input, :func:`objective` of the new iterate and the stopping
    rule, then, unless it fired, :func:`majorized_input` at that iterate."""
    history = [f0]
    for _ in range(cfg.max_iter):
        x = fused_lasso_l1(shifted, cfg.lambda0, cfg.lambda1)
        prev, f = history[-1], objective(x, y, cfg)
        history.append(f)
        if abs(prev - f) <= cfg.tol * abs(prev):
            return x, np.array(history), True
        shifted = majorized_input(x, y, cfg)
    return x, np.array(history), False
