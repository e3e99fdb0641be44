"""Slow convergent reference solvers, used only to cross-check the exact
kernels.  Deliberately independent of the package's solve paths: the TV
reference runs accelerated projected gradient on the dual, the fused-lasso
reference runs a primal-dual splitting on the joint objective.

`mm_reference` is the exception: it is the MM loop of `cnc.solve` written
as a plain chain of per-step functions, the reference that the solver's
fused loop must match bit for bit.  Its objective and shifted input are
written here from the penalty methods, `np.diff` and `diff_adjoint`, not
taken from `cnc`, so a fault in the formulas the solver shares with the
public `objective` and `majorized_input` cannot pass unseen.  The penalty
methods are pinned in turn to `penalty_terms`, each kind's phi and s'
written out here in one expression each."""

import numpy as np

from cncflsa import SolveResult, diff_adjoint, fused_lasso_l1

SQRT3 = np.sqrt(3.0)


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


def mm_reference(y, cfg):
    """MM solve of `cnc.solve` as a plain chain: one `mm_shifted_input`, one
    `fused_lasso_l1` and one `mm_objective` per update."""
    y = np.asarray(y, dtype=float)
    x = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
    history = [mm_objective(x, y, cfg)]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        shifted = mm_shifted_input(x, y, cfg)
        x = fused_lasso_l1(shifted, cfg.lambda0, cfg.lambda1)
        f = mm_objective(x, y, cfg)
        prev = history[-1]
        history.append(f)
        iterations += 1
        if abs(prev - f) <= cfg.tol * abs(prev):
            converged = True
            break
    return SolveResult(x=x, objective_history=np.asarray(history),
                       iterations=iterations, converged=converged)
