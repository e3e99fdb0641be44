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
    a dimensionless bound on the iterate's optimality residual; see
    :func:`solve`.  Frozen, so that construction
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
    """Solution plus the recorded objective trajectory and what the solve did.

    objective_history[0] is the objective at the initializer and one more
    entry is appended per majorization-minimization update, so its length is
    iterations + 1.  A solve stops on an update or on the polished iterate
    after one, and either way the history's last entry is F(x),
    objective(x, y, cfg) bit for bit.  It falls along the way, except that
    once the iterate sits at its optimum it may move by an ulp or two of
    F.  converged says that the stop's certificate met tol, and certificate
    is that value: a bound on the subgradient-optimality residual of x
    after an update, the residual itself (the subgradient oracle at x)
    after a polish (see :func:`solve`).  polishes counts the Newton
    polishes run after updates; it reaches iterations only where the solve
    stopped on a polished iterate.
    """

    x: np.ndarray
    objective_history: np.ndarray
    iterations: int
    converged: bool
    certificate: float
    polishes: int


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
    input s_{k-1}, s_0 being :func:`majorized_input` at x_0, appends F(x_k)
    to the history and forms s_k = :func:`majorized_input` at x_k.  Then e
    = s_{k-1} - s_k is a subgradient of F at x_k, and the certificate c_k
    is ||e||_1 / lambda1 (||e||_inf / lambda0 where lambda1 = 0, and 0
    where both weights are), a bound on the subgradient-optimality residual
    of x_k in the units of the dual variables.  The solve stops, converged,
    at the first c_k <= cfg.tol, otherwise after cfg.max_iter updates.

    After each update that does not stop, the iterate is polished: Newton
    steps on the values of its nonzero segments lower F, first in merge
    rounds, each of which may zero and fuse many segments at once, then
    with the structure reached held (see :func:`_polish`), and the shifted
    input s of the polished iterate x^ replaces s_k.  Where the polish took
    a step, the subgradient oracle
    ``fused_lasso_optimality_residual(s, x^, lambda0, lambda1)`` is
    evaluated: where it is <= cfg.tol, the solve stops, converged, on x^,
    with that residual as its certificate and F(x^) in place of F(x_k) as
    the history's last entry.  That saves the update that would only
    confirm x^.  Each update lowers F from any point, so the polish needs
    no test that the structure has settled, and a wrong merge costs one
    update, not the result: only a certificate stops a solve.

    The certificate is unit-free, so scaling y and the weights by a power of
    two c and the degrees by 1/c scales x by c and F by c**2 exactly, unless
    a value overflows or turns subnormal; and where F overflows, the solve
    still stops on it.

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
    x, history, converged, certificate, polishes, _ = _mm_updates(
        y, majorized_input(x, y, cfg), f0, cfg)
    return SolveResult(
        x=x,
        objective_history=history,
        iterations=history.size - 1,
        converged=converged,
        certificate=certificate,
        polishes=polishes,
    )


def _mm_updates(y, shifted, f0, cfg):
    """The MM updates of :func:`solve` from a start's shifted input and its
    F.

    Returns the last iterate (an update's or a polish's), the objective
    history from f0 on, whether the certificate met cfg.tol, the last
    certificate, the number of polishes and their Newton steps in all.
    With the compiled module the updates run in one call of its
    ``mm_solve``, which allocates its scratch, its copy of shifted and the
    history itself; without it they run in
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
    shifted input, :func:`objective` of the new iterate,
    :func:`majorized_input` at it and the certificate; then, unless the
    certificate met tol or the cap is reached, :func:`_polish` of the
    iterate, its merge rounds included, and where the polish took a step,
    the polished iterate's :func:`majorized_input` and the public
    :func:`fused_lasso_optimality_residual` of the two, which stops the
    solve on the polished iterate where it meets tol, replacing the
    history's last entry by the polished iterate's :func:`objective`.
    Returns what :func:`_mm_updates` returns; the polish's count of merge
    rounds is not kept."""
    history, polishes, steps = [f0], 0, 0
    for k in range(1, cfg.max_iter + 1):
        x = fused_lasso_l1(shifted, cfg.lambda0, cfg.lambda1)
        history.append(objective(x, y, cfg))
        nxt = majorized_input(x, y, cfg)
        certificate = _certificate(shifted, nxt, cfg)
        if certificate <= cfg.tol or k == cfg.max_iter:
            break
        polished = _polish(x, y, cfg)
        if polished is not None:
            polishes += 1
            xhat, taken, _ = polished
            steps += taken
            if taken:
                nxt = majorized_input(xhat, y, cfg)
                residual = fused_lasso_optimality_residual(nxt, xhat, cfg.lambda0, cfg.lambda1)
                if residual <= cfg.tol:
                    history[-1] = objective(xhat, y, cfg)
                    return xhat, np.array(history), True, residual, polishes, steps
        shifted = nxt
    return x, np.array(history), certificate <= cfg.tol, certificate, polishes, steps


def _certificate(shifted, nxt, cfg):
    """||shifted - nxt||_1 / lambda1, or its largest entry / lambda0 where
    lambda1 = 0, or 0 where both weights are 0; NaN where e holds NaN."""
    e = np.abs(shifted - nxt)
    if cfg.lambda1 > 0.0:
        return float(np.add.reduce(e)) / cfg.lambda1
    if cfg.lambda0 > 0.0:
        return float(np.max(e)) / cfg.lambda0
    return 0.0


# The polish's cap on Newton steps, and on the halvings of each step.
POLISH_STEPS = 60

# A Newton step whose predicted fall of the segment objective f, half the
# decrement g.H^-1.g, is at most _EPS * f, about an ulp of f, cannot show a
# strict fall: rounding hides it (see _polish).
_EPS = float(np.finfo(float).eps)


def _polish(x, y, cfg):
    """Newton steps on the values v of the nonzero segments of x, the
    segments held at 0 staying there: None where x has no nonzero segment,
    else the polished iterate, the number of steps taken and how many of
    them were merge rounds.

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
    positive, or after POLISH_STEPS steps, merge rounds included.
    ``polish`` in ``_kernels.c`` runs the same operations in the same
    order."""
    fresh = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    v = x[fresh]
    if not v.any():
        return None
    cnt = np.diff(np.append(fresh, x.size)).astype(float)
    mean = np.zeros(v.size)
    for g in np.flatnonzero(v):
        mean[g] = float(np.add.reduce(y[fresh[g]:fresh[g] + int(cnt[g])])) / cnt[g]
    lam0, lam1, p0, p1 = cfg.lambda0, cfg.lambda1, cfg.penalty0, cfg.penalty1
    f = _segment_objective(v, cnt, mean, v != 0.0, cfg)
    steps = rounds = 0
    merging = True
    with np.errstate(all="ignore"):
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
                    steps, rounds = steps + 1, rounds + 1
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
    return np.repeat(v, cnt.astype(np.intp)), steps, rounds


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
