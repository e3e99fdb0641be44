"""Every public function that takes a signal accepts it in any memory
layout: a finite unaligned or strided float64 array gives the bytes of the
same call on an aligned, C-contiguous copy, on both backends.  The module's
entries read only aligned, C-contiguous arrays, so this holds because
`as_signal`, `soft_threshold` and `PenaltySpec._map` copy any other.  Each
rejects a complex signal."""

import numpy as np
import pytest

from cncflsa import (CncConfig, NoiseSpec, PenaltySpec, SolveResult, add_awgn, diff,
                     diff_adjoint, fused_lasso_l1, fused_lasso_optimality_residual,
                     majorized_input, objective, prox, rmse, soft_threshold, solve, tvd,
                     tvd_optimality_residual)

from suites import strided, unaligned

CFG = CncConfig(0.3, 2.0, PenaltySpec("atan", 1.0), PenaltySpec("log", 0.05))
SPEC = PenaltySpec("rational", 0.7)

# Each public call of two signals a and b, both in the layout under test.
CALLS = {
    "as_signal": lambda a, b: prox.as_signal(a),
    "soft_threshold": lambda a, b: soft_threshold(a, 0.3),
    "diff": lambda a, b: diff(a),
    "diff_adjoint": lambda a, b: diff_adjoint(a),
    "tvd": lambda a, b: tvd(a, 1.0),
    "tvd_optimality_residual": lambda a, b: tvd_optimality_residual(a, b, 1.0),
    "fused_lasso_l1": lambda a, b: fused_lasso_l1(a, 0.3, 1.0),
    "fused_lasso_optimality_residual":
        lambda a, b: fused_lasso_optimality_residual(a, b, 0.3, 1.0),
    "value": lambda a, b: SPEC.value(a),
    "residual": lambda a, b: SPEC.residual(a),
    "residual_deriv": lambda a, b: SPEC.residual_deriv(a),
    "majorizer": lambda a, b: SPEC.majorizer(a, b),
    "objective": lambda a, b: objective(a, b, CFG),
    "majorized_input": lambda a, b: majorized_input(a, b, CFG),
    "solve": lambda a, b: solve(a, CFG),
    "add_awgn": lambda a, b: add_awgn(a, NoiseSpec(0.1, 3)),
    "rmse": lambda a, b: rmse(a, b),
}


def as_bytes(out):
    if isinstance(out, SolveResult):
        return [as_bytes(v) for v in (out.x, out.objective_history, out.iterations,
                                      out.converged)]
    return type(out), np.asarray(out).shape, np.asarray(out).tobytes()


def use(backend, monkeypatch):
    if backend == "python":
        monkeypatch.setattr(prox, "_tvd_c", None)
    elif prox.TVD_BACKEND != "c":
        pytest.skip("no compiled library")


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("layout", [unaligned, strided])
@pytest.mark.parametrize("name", CALLS)
def test_any_layout_gives_the_bytes_of_an_aligned_copy(name, layout, backend, monkeypatch):
    use(backend, monkeypatch)
    rng = np.random.default_rng(8)
    y = np.repeat(rng.normal(0.0, 2.0, 12), 5) + rng.normal(0.0, 0.5, 60)
    v = fused_lasso_l1(y, 0.3, 1.0)
    a, b = layout(y), layout(v)
    assert not (a.flags.aligned and a.flags.c_contiguous)
    assert as_bytes(CALLS[name](a, b)) == as_bytes(CALLS[name](a.copy(), b.copy()))


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("name", CALLS)
def test_a_complex_signal_raises_value_error(name, backend, monkeypatch):
    """np.asarray(x, dtype=float) made a complex array real with only a
    ComplexWarning."""
    use(backend, monkeypatch)
    a = np.linspace(-1.0, 1.0, 60) + 0.5j
    with pytest.raises(ValueError, match="must be real"):
        CALLS[name](a, a)
