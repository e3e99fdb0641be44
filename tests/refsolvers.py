"""Slow convergent reference solvers, used only to cross-check the exact
kernels.  Deliberately independent of the package's solve paths: the TV
reference runs accelerated projected gradient on the dual, the fused-lasso
reference runs a primal-dual splitting on the joint objective.

`mm_reference` is the exception: it is the MM loop of `cnc.solve` written
as a plain chain of per-step functions, the reference that the solver's
fused loop must match bit for bit.  Its objective and shifted input are
written here from the penalty methods, `np.diff` and `diff_adjoint`, not
taken from `cnc`, so a fault in the formulas the solver shares with the
public `objective` and `majorized_input` cannot pass unseen.  So is its
polish (`polish_reference`), segment by segment, from the penalty methods
and `curvature_terms`; the subgradient oracle on which every solve stops
is the public one.  The penalty
methods are pinned in turn to `penalty_terms`, each kind's phi and s'
written out here in one expression each, and `PenaltySpec.residual_deriv2`
to `curvature_terms`."""

import numpy as np

from cncflsa import SolveResult, diff_adjoint, fused_lasso_l1, fused_lasso_optimality_residual

SQRT3 = np.sqrt(3.0)
U_LIMIT = 2.0**56
EPS = float(np.finfo(float).eps)


def penalty_terms(kind, a, x):
    """phi(x; a) and s'(x; a) of a float array x, with the operations of
    `PenaltySpec.value` and `.residual_deriv` in the same order.  Where
    a*|x|, or the square in the atan or rational s', overflows, s' is its
    limit -sign(x), the log phi is inf, and where sqrt(3)*a*|x| overflows,
    the argument of the atan phi is its limit sqrt(3), and where 0.5*a*|x|
    does, the rational phi is its limit 2/a."""
    ax = np.abs(x)
    if kind == "l1" or a == 0.0:
        return ax, np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        u = a * ax
        if kind == "log":
            big = u
            phi = np.log1p(u) / a
            ds = -a * x / (1.0 + u)
        elif kind == "atan":
            big = (1.0 + 2.0 * u) ** 2
            v = SQRT3 * u
            phi = np.arctan(np.where(np.isinf(v), SQRT3, v / (2.0 + u))) * (2.0 / (a * SQRT3))
            ds = -4.0 * a * x * (1.0 + u) / (3.0 + big)
        elif kind == "rational":
            big = (1.0 + 0.5 * u) ** 2
            w = 0.5 * a * ax
            phi = np.where(np.isinf(w), 2.0 / a, ax / (1.0 + w))
            ds = -a * x * (1.0 + 0.25 * u) / big
        else:
            raise ValueError(kind)
    return phi, np.where(np.isinf(big), -np.sign(x), ds)


def curvature_terms(kind, a, x):
    """s''(x; a) of a float array x, with the operations of
    `PenaltySpec.residual_deriv2` in the same order: -a/(1 + u)**2 for log,
    -a*(1 + 2u)/(1 + u + u**2)**2 for atan, written with 4*(1 + u + u**2) =
    3 + (1 + 2u)**2, and -a/(1 + u/2)**3 for rational, u = a*|x|; past
    u = 2**56 its limit 0."""
    if kind == "l1" or a == 0.0:
        return np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        u = a * np.abs(x)
        if kind == "log":
            c = -a / ((1.0 + u) * (1.0 + u))
        elif kind == "atan":
            w = 3.0 + (1.0 + 2.0 * u) * (1.0 + 2.0 * u)
            c = -16.0 * a * (1.0 + 2.0 * u) / (w * w)
        elif kind == "rational":
            c = -a / ((1.0 + 0.5 * u) * (1.0 + 0.5 * u) * (1.0 + 0.5 * u))
        else:
            raise ValueError(kind)
    return np.where(u > U_LIMIT, 0.0, c)


def d_apply(x):
    return x[1:] - x[:-1]


def dt_apply(u):
    out = np.empty(u.size + 1)
    out[0] = -u[0]
    out[-1] = u[-1]
    if u.size > 1:
        out[1:-1] = u[:-1] - u[1:]
    return out


def tv_objective(y, x, lam):
    return 0.5 * np.sum((y - x) ** 2) + lam * np.sum(np.abs(d_apply(x)))


def fl_objective(y, x, lam0, lam1):
    return tv_objective(y, x, lam1) + lam0 * np.sum(np.abs(x))


def tvd_reference(y, lam, tol=1e-14, max_iter=400000):
    """Accelerated projected gradient on the TV dual, run to stagnation."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 1 or lam == 0.0:
        return y.copy()
    u = np.zeros(n - 1)
    w = u.copy()
    t = 1.0
    step = 0.25  # 1 / ||D D^T||, eigenvalues below 4
    prev_obj = np.inf
    stable = 0
    for k in range(1, max_iter + 1):
        grad = d_apply(dt_apply(w) - y)
        un = np.clip(w - step * grad, -lam, lam)
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        w = un + ((t - 1.0) / tn) * (un - u)
        u, t = un, tn
        if k % 100 == 0:
            obj = tv_objective(y, y - dt_apply(u), lam)
            if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
                stable += 1
                if stable >= 3:
                    break
            else:
                stable = 0
            prev_obj = obj
    return y - dt_apply(u)


def fused_lasso_reference(y, lam0, lam1, tol=1e-14, max_iter=400000):
    """Primal-dual splitting on the joint fused-lasso objective."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 1:
        v = y.copy()
        return np.sign(v) * np.maximum(np.abs(v) - lam0, 0.0)
    tau = 0.2
    sigma = 1.0  # tau*(1/2 + sigma*||D||^2) <= 1
    x = y.copy()
    u = np.zeros(n - 1)
    prev_obj = np.inf
    stable = 0
    for k in range(1, max_iter + 1):
        v = x - tau * ((x - y) + dt_apply(u))
        xn = np.sign(v) * np.maximum(np.abs(v) - tau * lam0, 0.0)
        u = np.clip(u + sigma * d_apply(2.0 * xn - x), -lam1, lam1)
        x = xn
        if k % 100 == 0:
            obj = fl_objective(y, x, lam0, lam1)
            if abs(prev_obj - obj) <= tol * max(1.0, abs(obj)):
                stable += 1
                if stable >= 3:
                    break
            else:
                stable = 0
            prev_obj = obj
    return x


def mm_objective(x, y, cfg):
    """F(x), summed in the order and grouping that `cnc.solve` must keep:
    each of its three terms is numpy's pairwise sum, the data term of the
    squares (y - x)**2, not `np.dot`, whose BLAS sum follows the BLAS
    settings."""
    r = y - x
    val = 0.5 * float(np.sum(r * r))
    val += cfg.lambda0 * float(np.sum(cfg.penalty0.value(x)))
    if x.size > 1:
        val += cfg.lambda1 * float(np.sum(cfg.penalty1.value(np.diff(x))))
    return val


def mm_shifted_input(v, y, cfg):
    """y - lambda0*s0'(v) - lambda1*diff_adjoint(s1'(diff(v))), grouped as
    `cnc.solve` must group it."""
    out = y - cfg.lambda0 * cfg.penalty0.residual_deriv(v)
    if v.size > 1:
        out = out - cfg.lambda1 * diff_adjoint(cfg.penalty1.residual_deriv(np.diff(v)))
    return out


def segments(x):
    """The maximal runs of equal samples of x, as (start, stop) pairs."""
    bounds = [0] + [i for i in range(1, x.size) if x[i] != x[i - 1]] + [x.size]
    return list(zip(bounds[:-1], bounds[1:]))


def weighted_mean(values, counts):
    """The sum of counts and the counts-weighted mean of values, each added
    left to right."""
    total = acc = 0.0
    for value, n in zip(values, counts):
        total += n
        acc += n * value
    return total, acc / total


def polish_reference(x, y, cfg):
    """The polish of `cnc.solve`, segment by segment: Newton steps on the
    values of the nonzero segments of x, zero segments held.  First merge
    rounds, while one merges and lowers F restricted to the segments: the
    full step, each value it takes to or across 0 set to 0, each run of
    segments joined by jumps whose sign it changes set to 0 where a member
    is 0, else to their count-weighted mean, and the segments rebuilt from
    the runs of equal values, their counts added and their means of y
    count-weighted.  Then steps halved from the full one until signs hold
    and the restricted F strictly falls; a step whose full length would
    turn a sign, or whose predicted fall is below F's rounding, is the
    last.  Returns (polished x, steps), and (x, 0) where it took no step,
    as where x has no nonzero segment."""
    runs = segments(x)
    v = [float(x[start]) for start, _ in runs]
    if all(value == 0.0 for value in v):
        return x, 0
    size = [float(stop - start) for start, stop in runs]
    mean = [float(np.sum(y[start:stop])) / n if value != 0.0 else 0.0
            for (start, stop), n, value in zip(runs, size, v)]
    lam0, lam1, p0, p1 = cfg.lambda0, cfg.lambda1, cfg.penalty0, cfg.penalty1

    def restricted(w, free):
        w = np.array(w)
        q = np.array([0.5 * n * ((wi - m) * (wi - m)) if keep else 0.0
                      for wi, n, m, keep in zip(w, size, mean, free)])
        return (float(np.sum(q)) + lam0 * float(np.sum(np.array(size) * p0.value(w)))
                + lam1 * float(np.sum(p1.value(np.diff(w)))))

    def sign_bytes(w):
        return np.sign(np.array(w)).tobytes()

    f, steps, merging = restricted(v, [value != 0.0 for value in v]), 0, True
    with np.errstate(all="ignore"):
        while steps < 60:
            free = [value != 0.0 for value in v]
            g_count = len(v)
            w = np.array(v)
            jump = np.diff(w)
            s0, c0 = p0.residual_deriv(w), curvature_terms(p0.kind, p0.a, w)
            s1, c1 = p1.residual_deriv(jump), curvature_terms(p1.kind, p1.a, jump)
            grad, diag = [0.0] * g_count, [1.0] * g_count
            for g in range(g_count):
                if not free[g]:
                    continue
                sign = 1.0 if v[g] > 0.0 else -1.0
                grad[g] = size[g] * (v[g] - mean[g]) + lam0 * size[g] * (sign + float(s0[g]))
                diag[g] = size[g] * (1.0 + lam0 * float(c0[g]))
                if g > 0:
                    sign = 1.0 if jump[g - 1] > 0.0 else -1.0
                    grad[g] += lam1 * (sign + float(s1[g - 1]))
                    diag[g] += lam1 * float(c1[g - 1])
                if g < g_count - 1:
                    sign = 1.0 if jump[g] > 0.0 else -1.0
                    grad[g] -= lam1 * (sign + float(s1[g]))
                    diag[g] += lam1 * float(c1[g])
            off = [-(lam1 * float(c1[g])) if free[g] and free[g + 1] else 0.0
                   for g in range(g_count - 1)]
            # Thomas: forward elimination, then back substitution.
            cp, dp = [0.0] * g_count, [0.0] * g_count
            ok = True
            for g in range(g_count):
                pivot = diag[g] - (off[g - 1] * cp[g - 1] if g else 0.0)
                if not pivot > 0.0:
                    ok = False
                    break
                dp[g] = (grad[g] - (off[g - 1] * dp[g - 1] if g else 0.0)) / pivot
                if g < g_count - 1:
                    cp[g] = off[g] / pivot
            if not ok:
                break
            delta = [0.0] * g_count
            for g in range(g_count - 1, -1, -1):
                delta[g] = dp[g] - (cp[g] * delta[g + 1] if g < g_count - 1 else 0.0)
            delta = [dg if keep else 0.0 for dg, keep in zip(delta, free)]
            # A step whose predicted fall is below f's rounding is the last.
            last = 0.5 * float(np.sum(np.array(grad) * np.array(delta))) <= EPS * f
            if merging:
                merging = False
                trial = [vg - dg for vg, dg in zip(v, delta)]
                zeroed = [np.sign(tg) != np.sign(vg) for tg, vg in zip(trial, v)]
                trial = [0.0 if zero else tg for tg, zero in zip(trial, zeroed)]
                joined = [np.sign(trial[g + 1] - trial[g]) != np.sign(jump[g])
                          for g in range(g_count - 1)]
                if any(joined) or any(zeroed):
                    groups = [[0]]
                    for g in range(1, g_count):
                        if joined[g - 1]:
                            groups[-1].append(g)
                        else:
                            groups.append([g])
                    for group in groups:
                        if len(group) > 1:
                            values = [trial[g] for g in group]
                            value = (0.0 if 0.0 in values else
                                     weighted_mean(values, [size[g] for g in group])[1])
                            for g in group:
                                trial[g] = value
                    if restricted(trial, free) < f:
                        # Rebuild the segments from the runs of equal values.
                        bounds = [0] + [g for g in range(1, g_count)
                                        if trial[g] != trial[g - 1]] + [g_count]
                        pieces = list(zip(bounds[:-1], bounds[1:]))
                        fused = [weighted_mean(mean[a:b], size[a:b]) if b - a > 1
                                 else (size[a], mean[a]) for a, b in pieces]
                        v = [trial[a] for a, _ in pieces]
                        size = [n for n, _ in fused]
                        mean = [m for _, m in fused]
                        f = restricted(v, [value != 0.0 for value in v])
                        steps += 1
                        merging = True
                        continue
            # Ordinary steps: the full one, halved until every sign holds
            # and f falls; one whose full length turns a sign is the last.
            t, accepted = 1.0, False
            for _ in range(60):
                trial = [vg - t * dg for vg, dg in zip(v, delta)]
                if trial == v:
                    break
                if (sign_bytes(trial) == sign_bytes(v)
                        and sign_bytes(np.diff(trial)) == sign_bytes(jump)):
                    ft = restricted(trial, free)
                    if ft < f or (last and ft - f <= EPS * f):
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
    return (np.repeat(v, [int(n) for n in size]) if steps else x), steps


def mm_reference(y, cfg):
    """MM solve of `cnc.solve` as a plain chain, per update: one
    `fused_lasso_l1`, then `polish_reference` of its iterate on every
    update, capped or not, unless both penalties are l1, then the iterate's
    `mm_objective`, its `mm_shifted_input` and the public subgradient
    oracle `fused_lasso_optimality_residual` of the two.  The solve stops,
    converged, where the oracle meets tol, and otherwise at its cap or
    where the new shifted input has the bytes of the one the update solved
    on."""
    y = np.asarray(y, dtype=float)
    x = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
    history = [mm_objective(x, y, cfg)]
    shifted = mm_shifted_input(x, y, cfg)
    newton_steps = 0
    exact = cfg.penalty0.kind == "l1" and cfg.penalty1.kind == "l1"
    for k in range(1, cfg.max_iter + 1):
        x = fused_lasso_l1(shifted, cfg.lambda0, cfg.lambda1)
        if not exact:
            x, steps = polish_reference(x, y, cfg)
            newton_steps += steps
        history.append(mm_objective(x, y, cfg))
        solved_on, shifted = shifted, mm_shifted_input(x, y, cfg)
        certificate = fused_lasso_optimality_residual(shifted, x, cfg.lambda0, cfg.lambda1)
        if (certificate <= cfg.tol or k == cfg.max_iter
                or shifted.tobytes() == solved_on.tobytes()):
            break
    return SolveResult(x=x, objective_history=np.asarray(history), iterations=len(history) - 1,
                       converged=certificate <= cfg.tol, certificate=certificate,
                       newton_steps=newton_steps)
