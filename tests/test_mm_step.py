"""The compiled MM loop against its Python twin, one update at a time: the
module's `mm_solve` capped at 1, 2 and 3 updates from one start gives,
after each update, the byte-identical iterate, residual, update count, F,
certificate and Newton step count of `cnc._mm_loop_python`,
the chain of the public `fused_lasso_l1`, `objective`, `majorized_input`
and `fused_lasso_optimality_residual` with the polish of each update's
iterate, on the Python kernel.  Also the
build flags that this rests on and the one entry point of the loop."""

import dataclasses
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import KINDS, CncConfig, PenaltySpec, cnc, prox, solve

from suites import EDGE

signals = st.one_of(
    st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]), min_size=1, max_size=3),
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=60),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2000)).map(
        lambda t: np.random.default_rng(t[0]).normal(0.0, 3.0, t[1]).tolist()),
)
weights = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
degrees = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
WIDE = np.random.default_rng(9).normal(0.0, 3.0, 60).tolist()


def run_steps(y, v, cfg, compiled, calls=3):
    """Rows (x, r), the updates run, the last F, certificate and Newton
    steps of the module's ``mm_solve`` capped at 1, ..., `calls`
    updates, each from the shifted input of the start v, or of the Python
    twin on the Python kernel.  tol is NaN, which the certificate never
    meets, so each call runs to its cap or to a fixed point of the MM map;
    CncConfig rejects it, so the twin reads a copy of cfg's fields."""
    y = np.ascontiguousarray(y)
    shifted = cnc.majorized_input(v, y, cfg)
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    states = []
    for cap in range(1, calls + 1):
        if compiled:
            x, history, *counts = prox._tvd_c.mm_solve(
                y, shifted, 0.0, cfg.lambda0, cfg.lambda1, cfg.penalty0.a, cfg.penalty1.a,
                KINDS.index(cfg.penalty0.kind), KINDS.index(cfg.penalty1.kind), cap, np.nan)
        else:
            loop_cfg = types.SimpleNamespace(**{**fields, "max_iter": cap, "tol": np.nan})
            with mock.patch.object(prox, "_tvd_c", None):
                x, history, *counts = cnc._mm_loop_python(y, shifted, 0.0, loop_cfg)
        states.append([x.tobytes(), (y - x).tobytes(), history.size - 1, history[-1].hex(),
                       np.float64(counts[1]).hex(), *counts[2:]])
    return states


@pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")
@settings(max_examples=300, deadline=None)
@given(signals, st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(KINDS),
       weights, weights, degrees, degrees)
@example([-0.0], 0, "atan", "log", 0.5, 1.0, 0.5, 0.5)
@example([-0.0, 2.0], 1, "log", "rational", 0.0, 1.0, 1.0, 0.2)
@example([1.0, -0.0, 3.0], 2, "rational", "atan", 0.4, 0.0, 1.0, 3.0)
@example([-0.0, -0.0, 0.0], 3, "l1", "atan", 1.0, 1.0, 0.0, 1.0)
# a*|x| on both sides of 2**56, past which s' is taken as -sign(x), and
# past 1e154, where the squares in the atan and rational s' overflow.
@example(WIDE, 4, "atan", "rational", 0.1, 0.1, 2.0**53, 2.0**55)
@example(WIDE, 4, "rational", "atan", 0.1, 0.1, 2.0**54, 2.0**53)
@example(WIDE, 5, "rational", "atan", 0.1, 0.1, 1e160, 1e160)
@example(WIDE, 5, "atan", "rational", 0.1, 0.1, 1e160, 1e160)
# a*|x| past the largest float, where the log s' read NaN.
@example(WIDE, 6, "log", "log", 0.1, 0.1, 1e308, 1e308)
# Lengths that end the vectorized maps in each kind of tail: every kind
# past the limit as penalty0 and as penalty1, and a = 0 beside a > 0.
@example(EDGE[:2], 7, "log", "atan", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:3], 8, "atan", "rational", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:4], 9, "rational", "log", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:5], 10, "l1", "rational", 0.1, 0.1, 0.0, 1e160)
@example(EDGE[:6], 14, "log", "rational", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:7], 15, "rational", "log", 0.1, 0.1, 1e160, 2.0**52)
@example(EDGE[:8], 11, "atan", "log", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:9], 12, "rational", "atan", 0.1, 0.1, 1e160, 0.0)
@example(EDGE[:15], 16, "atan", "atan", 0.1, 0.1, 2.0**52, 2.0**52)
@example(EDGE[:16], 17, "rational", "l1", 0.1, 0.1, 2.0**52, 0.0)
@example(EDGE[:17], 13, "log", "atan", 0.1, 0.1, 1e160, 2.0**52)
@example(EDGE[:31], 18, "atan", "rational", 0.1, 0.1, 1e160, 2.0**52)
@example(EDGE, 19, "rational", "log", 0.1, 0.1, 2.0**52, 1e160)
def test_compiled_step_matches_python_twin_bytes(values, seed, kind0, kind1, lam0, lam1, a0, a1):
    y = np.array(values)
    # Start from the shifted input of a random iterate, zeroed in places.
    v = np.random.default_rng(seed).normal(0.0, 2.0, y.size) * (np.arange(y.size) % 3 != 0)
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind0, a0), PenaltySpec(kind1, a1),
                    allow_nonconvex=True)
    assert run_steps(y, v, cfg, compiled=True) == run_steps(y, v, cfg, compiled=False)


def test_build_flags_round_every_operation_on_its_own():
    """The byte tests above run one build; these flags are what make every
    build of the library round as numpy does."""
    assert "-ffp-contract=off" in prox._C_FLAGS
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
                "-ffinite-math-only", "-march=native"} & set(prox._C_FLAGS)


def test_solve_reads_a_strided_observation():
    y = np.random.default_rng(4).normal(0.0, 1.0, 600)
    cfg = CncConfig(0.3, 2.0, PenaltySpec("atan", 1.0), PenaltySpec("log", 0.05))
    strided, contiguous = solve(y[::2], cfg), solve(y[::2].copy(), cfg)
    assert strided.x.tobytes() == contiguous.x.tobytes()
    assert strided.objective_history.tobytes() == contiguous.objective_history.tobytes()


def test_solution_is_not_a_loop_buffer():
    y = np.random.default_rng(5).normal(0.0, 1.0, 50)
    result = solve(y, CncConfig(0.3, 2.0, PenaltySpec("atan", 1.0), PenaltySpec("atan", 0.05)))
    for array in (result.x, result.objective_history):
        assert array.base is None and array.flags.owndata


@pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")
def test_the_loop_is_the_one_mm_entry_point():
    assert hasattr(prox._tvd_c, "mm_solve")
    assert not hasattr(prox._tvd_c, "mm_step")
