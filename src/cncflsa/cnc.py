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
chain of the public :func:`fused_lasso_l1`, :func:`objective`,
:func:`majorized_input` and :func:`fused_lasso_optimality_residual`, the
subgradient oracle on which every solve stops; with the compiled module it
runs as one call of its ``mm_solve``, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prox as _prox
from .penalties import KINDS, PenaltySpec
from .prox import (_as_pair, _check_nonneg, _check_pos, _diff_adjoint, _total, _whole,
                   as_signal, fused_lasso_l1, fused_lasso_optimality_residual)

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
    and tol (finite and > 0) is its stopping tolerance on the certificate,
    the subgradient oracle of the returned iterate; see :func:`solve`.
    Frozen, so that construction validates every field that a solve reads;
    ``dataclasses.replace`` makes a changed copy.
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
    """Solution plus the recorded objective trajectory and what the solve did.

    objective_history[0] is the objective at the initializer, and entry k
    is F of the iterate that majorization-minimization update k leaves, so
    its length is iterations + 1 and its last entry is F(x),
    objective(x, y, cfg) bit for bit.  It falls along the way, except that
    once the iterate sits at its optimum it may move by an ulp or two of
    F.  certificate is the subgradient oracle of x,
    ``fused_lasso_optimality_residual(majorized_input(x, y, cfg), x,
    lambda0, lambda1)`` bit for bit, and converged says that it met tol
    (see :func:`solve`).  newton_steps counts the Newton steps of the
    polishes of the updates' iterates, merge rounds included; every update
    polishes its iterate unless both penalties are l1.
    """

    x: np.ndarray
    objective_history: np.ndarray
    iterations: int
    converged: bool
    certificate: float
    newton_steps: int


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
    reduced with numpy's pairwise sum by ``prox._total``, the compiled
    module's ``total`` when it is loaded, which forms the squares in its
    own scratch; each term is evaluated and summed before the next, and
    where a sum overflows F reads inf with no warning.  ``np.dot`` would
    call BLAS, whose sum follows the BLAS build and its thread count;
    numpy's own ``add`` loop adds in one fixed order, which the compiled
    ``mm_solve`` calls too.  With one sample the difference sum is the 0.0
    of an empty sum, and adding it changes no bit, because the first two
    terms never sum to -0.0.
    """
    x, y = _as_pair(x, y, "x", "y")
    return (0.5 * _total(y, x)
            + cfg.lambda0 * _total(cfg.penalty0.value(x))
            + cfg.lambda1 * _total(cfg.penalty1.value(x[1:] - x[:-1])))


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

    Starts from the L1 fused-lasso solution x_0, then runs updates: update
    k solves one exact L1 fused lasso x_k = FLSA(s_{k-1}) on the shifted
    input s_{k-1}, s_0 being :func:`majorized_input` at x_0, polishes x_k,
    appends F(x_k) to the history and forms s_k = :func:`majorized_input`
    at x_k.  The polish runs Newton steps on the values of the nonzero
    segments of x_k, which lower F, first in merge rounds, each of which
    may zero and fuse many segments at once, then with the structure
    reached held (see :func:`_polish`).  Every update polishes, capped or
    not, unless both penalties are l1, whose update is already exact, so a
    cap only truncates the solve: its history is a prefix of the uncapped
    one's.  Each update lowers F from any point, so the polish needs no
    test that the structure has settled, and a wrong merge costs one
    update, not the result: only the oracle stops a solve.

    One rule stops a solve: it stops, converged, where the subgradient
    oracle of x_k, ``fused_lasso_optimality_residual(s_k, x_k, lambda0,
    lambda1)``, is <= cfg.tol, and it reports the oracle of the iterate it
    returns as its certificate.  The oracle measures how far x is from the
    fused-lasso optimum of s, in the units of the dual variables.  The
    majorizer at x has F's subgradients at x, so in exact arithmetic the
    oracle reads 0 exactly where x minimizes F.  Otherwise the solve stops,
    unconverged, after cfg.max_iter updates, or where s_k equals s_{k-1}
    bit for bit: a fixed point of the MM map, from which every later
    update would repeat update k, as where the oracle rounds a few ulps
    above a tol below its rounding floor.

    The oracle is unit-free, so scaling y and the weights by a power of
    two c and the degrees by 1/c scales x by c and F by c**2 exactly, unless
    a value overflows or turns subnormal; and where F overflows, the solve
    still stops on the oracle.

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
    x, history, converged, certificate, newton_steps = _mm_updates(
        y, majorized_input(x, y, cfg), f0, cfg)
    return SolveResult(
        x=x,
        objective_history=history,
        iterations=history.size - 1,
        converged=converged,
        certificate=certificate,
        newton_steps=newton_steps,
    )


def _mm_updates(y, shifted, f0, cfg):
    """The MM updates of :func:`solve` from a start's shifted input and its
    F.

    Returns the iterate the last update left, the objective history from
    f0 on, whether its subgradient oracle, the certificate, met cfg.tol,
    that certificate and the Newton steps of the polishes in all, one
    polish per update unless both penalties are l1.  With the compiled
    module the updates run in one call of its ``mm_solve``, which
    allocates its scratch, its copy of shifted and the history itself;
    without it they run in :func:`_mm_loop_python`, its reference.  Both give the same bits, and neither writes y or shifted.
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
    shifted input, :func:`_polish` of the new iterate, its merge rounds
    included, unless both penalties are l1, then :func:`objective` of the
    iterate, :func:`majorized_input` at it and the public
    :func:`fused_lasso_optimality_residual` of the two, and the stop test
    of :func:`solve`.  Returns what :func:`_mm_updates` returns."""
    history, steps = [f0], 0
    lam0, lam1 = cfg.lambda0, cfg.lambda1
    exact = cfg.penalty0.kind == cfg.penalty1.kind == "l1"
    for k in range(1, cfg.max_iter + 1):
        x = fused_lasso_l1(shifted, lam0, lam1)
        if not exact:
            x, taken = _polish(x, y, cfg)
            steps += taken
        history.append(objective(x, y, cfg))
        solved_on, shifted = shifted, majorized_input(x, y, cfg)
        certificate = fused_lasso_optimality_residual(shifted, x, lam0, lam1)
        if (certificate <= cfg.tol or k == cfg.max_iter
                or shifted.tobytes() == solved_on.tobytes()):
            break
    return x, np.array(history), certificate <= cfg.tol, certificate, steps


# The polish's cap on Newton steps, and on the halvings of each step.
POLISH_STEPS = 60

# A Newton step whose predicted fall of the segment objective f, half the
# decrement g.H^-1.g, is at most _EPS * f, about an ulp of f, cannot show a
# strict fall: rounding hides it (see _polish).
_EPS = float(np.finfo(float).eps)


@np.errstate(all="ignore")
def _polish(x, y, cfg):
    """Newton steps on the values v of the nonzero segments of x, the
    segments held at 0 staying there: the polished iterate and the number
    of steps taken, merge rounds included; x itself and 0 where it took
    none, as where x has no nonzero segment.

    With the structure of x fixed, F is smooth in v; up to a constant it is
    :func:`_segment_objective`, f.  Its gradient takes phi' = sign + s' and
    its Hessian, tridiagonal, s'' (``residual_deriv2``).  Each step solves
    the Newton system in one Thomas sweep (:func:`_thomas`).  The polish
    first runs merge rounds: the full step with every value that it would
    take to or across 0 set to 0 and every run of segments joined by jumps
    whose sign it would change set to one value (:func:`_merged_step`).  A
    round is scored by f of the segments it started from, whose change is
    F's, and is accepted where f strictly falls; the segments are then
    rebuilt from their own counts and means (:func:`_fused`), so no round
    reads y, and the iterate is expanded once, at the end.  Rounds repeat
    while one merges and is accepted.  Then, on the structure reached,
    ordinary steps start at the full step and halve until every nonzero
    segment and every jump keeps its sign and f strictly falls.  A step
    whose full length would turn a sign ends the polish, as does a step
    whose predicted fall, half the Newton decrement, is at most _EPS * f,
    which rounding hides; either is tried once, at the first length that
    keeps every sign, and taken where f rises by no more than _EPS * f.
    The polish also ends when no step is accepted, because none moves v,
    none passes within POLISH_STEPS halvings or a pivot of the sweep is not
    positive, or after POLISH_STEPS steps, merge rounds included.  numpy's
    floating-point warnings are off for the whole polish, whose segment
    means and sums may overflow, as the compiled one raises none.
    ``polish`` in ``_kernels.c`` runs the same operations in the same
    order."""
    fresh = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[fresh]
    if not v.any():
        return x, 0
    cnt = np.diff(np.append(fresh, x.size)).astype(float)
    mean = np.zeros(v.size)
    for g in np.flatnonzero(v):
        mean[g] = float(np.add.reduce(y[fresh[g]:fresh[g] + int(cnt[g])])) / cnt[g]
    lam0, lam1, p0, p1 = cfg.lambda0, cfg.lambda1, cfg.penalty0, cfg.penalty1
    f = _segment_objective(v, cnt, mean, v != 0.0, cfg)
    steps = 0
    merging = True
    while steps < POLISH_STEPS:
        free = v != 0.0
        d = v[1:] - v[:-1]
        slope1 = lam1 * (np.where(d > 0.0, 1.0, -1.0) + p1.residual_deriv(d))
        grad = cnt * (v - mean) + lam0 * cnt * (np.where(v > 0.0, 1.0, -1.0)
                                                + p0.residual_deriv(v))
        grad[1:] += slope1
        grad[:-1] -= slope1
        curv1 = lam1 * p1.residual_deriv2(d)
        diag = cnt * (1.0 + lam0 * p0.residual_deriv2(v))
        diag[1:] += curv1
        diag[:-1] += curv1
        off = np.where(free[1:] & free[:-1], -curv1, 0.0)
        diag[~free], grad[~free] = 1.0, 0.0
        delta = _thomas(diag, off, grad)
        if delta is None:
            break
        delta[~free] = 0.0
        last = 0.5 * float(np.add.reduce(grad * delta)) <= _EPS * f
        if merging:
            trial = _merged_step(v, delta, cnt)
            if trial is not None and _segment_objective(trial, cnt, mean, free, cfg) < f:
                v, cnt, mean = _fused(trial, cnt, mean)
                f = _segment_objective(v, cnt, mean, v != 0.0, cfg)
                steps += 1
                continue
            merging = False
        t, accepted = 1.0, False
        for _ in range(POLISH_STEPS):
            trial = v - t * delta
            if not np.any(trial != v):
                break
            keeps, kept = _signs_kept(trial, v)
            if keeps.all() and kept.all():
                ft = _segment_objective(trial, cnt, mean, free, cfg)
                if ft < f or (last and ft - f <= _EPS * f):
                    v, f, accepted = trial, ft, True
                    break
                if last:
                    break
            else:
                last = True
            t *= 0.5
        if not accepted:
            break
        steps += 1
        if last:
            break
    return (np.repeat(v, cnt.astype(np.intp)) if steps else x), steps


def _merged_step(v, delta, cnt):
    """The full Newton step v - delta of :func:`_polish` with every nonzero
    value that it would take to or across 0 set to 0, then every run of
    segments joined by jumps whose sign it would change (0 counting as a
    sign of its own) set to one value: 0 where a member is 0, else the
    members' count-weighted mean (:func:`_run_mean`).  None where it sets
    no value to 0 and joins no segments."""
    trial = v - delta
    keeps, _ = _signs_kept(trial, v)
    trial[~keeps] = 0.0
    _, kept = _signs_kept(trial, v)
    if keeps.all() and kept.all():
        return None
    starts = np.flatnonzero(np.concatenate(([True], kept)))
    sizes = np.diff(np.append(starts, v.size))
    for a, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        run = trial[a:a + size]
        run[:] = _run_mean(run, cnt[a:a + size])[1] if run.all() else 0.0
    return trial


def _fused(v, cnt, mean):
    """The segments of :func:`_polish` after a merge round v: one per run of
    equal values, whose count is the sum of its members' counts and whose
    mean of y the members' count-weighted mean, both summed left to right
    (:func:`_run_mean`)."""
    starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    sizes = np.diff(np.append(starts, v.size))
    cnt_new, mean_new = cnt[starts], mean[starts]
    for i in np.flatnonzero(sizes > 1):
        a, b = starts[i], starts[i] + sizes[i]
        cnt_new[i], mean_new[i] = _run_mean(mean[a:b], cnt[a:b])
    return v[starts], cnt_new, mean_new


def _run_mean(values, cnt):
    """The sum of cnt and the cnt-weighted mean of values, each summed left
    to right, as the polish of ``_kernels.c`` sums them."""
    total = acc = 0.0
    for c, value in zip(cnt.tolist(), values.tolist()):
        total += c
        acc += c * value
    return total, acc / total


def _signs_kept(trial, v):
    """Which segment values of trial keep the sign of v's, and which jumps
    keep the sign of v's jumps (0 counting as a sign of its own)."""
    d, dt = v[1:] - v[:-1], trial[1:] - trial[:-1]
    return (((trial > 0.0) == (v > 0.0)) & ((trial < 0.0) == (v < 0.0)),
            ((dt > 0.0) == (d > 0.0)) & ((dt < 0.0) == (d < 0.0)))


def _segment_objective(v, cnt, mean, free, cfg):
    """F restricted to a structure, less a constant: the sum over nonzero
    segments of 0.5*n_g*(v_g - m_g)**2, m_g the segment's mean of y, plus
    the penalties of the segment values (n_g each) and of their jumps."""
    r = v - mean
    q = np.where(free, 0.5 * cnt * (r * r), 0.0)
    return (float(np.add.reduce(q)) + cfg.lambda0 * float(np.add.reduce(cnt * cfg.penalty0.value(v)))
            + cfg.lambda1 * float(np.add.reduce(cfg.penalty1.value(v[1:] - v[:-1]))))


def _thomas(diag, off, rhs):
    """The solution of the symmetric tridiagonal system with diagonal diag,
    off-diagonal off and right-hand side rhs by one Thomas sweep, or None
    where a pivot is not positive (the matrix is not positive definite)."""
    b, c, d = diag.tolist(), off.tolist(), rhs.tolist()
    n = len(b)
    cp = [0.0] * n
    for i in range(n):
        den = b[i] - c[i - 1] * cp[i - 1] if i else b[0]
        if not den > 0.0:
            return None
        d[i] = (d[i] - c[i - 1] * d[i - 1]) / den if i else d[0] / den
        if i < n - 1:
            cp[i] = c[i] / den
    for i in range(n - 2, -1, -1):
        d[i] = d[i] - cp[i] * d[i + 1]
    return np.array(d)
