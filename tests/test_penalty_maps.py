"""The compiled maps of `PenaltySpec.value` and `PenaltySpec.residual_deriv`
(the module's `penalty_map`) against their Python references `_phi` and
`_slope`: the same bytes through the public methods, and through
`objective` and `majorized_input`, on inputs of any shape and layout; no
call of the references with the module; and the boundary check that every
start calls."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import KINDS, CncConfig, PenaltySpec, majorized_input, objective, prox, solve

from suites import EDGE

HAS_LIB = prox.TVD_BACKEND == "c"

# a = 2**52 and 2**55 put a*|x| on both sides of the 2**56 past which s' is
# -sign(x); from 1e160 on, the atan and rational squares overflow, and at
# 1e308 a*|x| itself does.  atan rejects an a above a quarter of the
# largest float, so 1e308 is drawn for the other kinds only.
specs = st.tuples(st.sampled_from(KINDS),
                  st.sampled_from([0.0, 1e-3, 0.7, 2.0**52, 2.0**55, 1e160, 1e308])).map(
    lambda t: PenaltySpec(t[0], min(t[1], 1e160) if t[0] == "atan" else t[1]))
samples = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, 1e-300, -60.0]), max_size=5),
    st.lists(st.floats(allow_nan=False, width=64), max_size=60),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2000)).map(
        lambda t: np.random.default_rng(t[0]).normal(0.0, 3.0, t[1]).tolist()),
)
finite_samples = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.0, 3.0, 1e-300, -60.0]), min_size=1,
             max_size=5),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2000)).map(
        lambda t: np.random.default_rng(t[0]).normal(0.0, 3.0, t[1]).tolist()),
)


def on_both(fn):
    """fn() with the library, then with the Python references."""
    with np.errstate(all="ignore"):
        compiled = fn()
        with mock.patch.object(prox, "_tvd_c", None):
            return compiled, fn()


def layouts(x):
    """x as given, as a Python float and a 0-d array of its first sample,
    strided, read-only, in two dimensions, transposed, and its diff (empty
    when x has one sample, NaN where x has inf - inf, inf where a finite
    difference overflows)."""
    readonly = x.copy()
    readonly.flags.writeable = False
    grid = np.resize(x, (3, x.size))
    with np.errstate(invalid="ignore", over="ignore"):
        out = [x, x[::2], readonly, grid, grid.T, x[1:] - x[:-1]]
    if x.size:
        out += [float(x[0]), np.array(x[0])]
    return out


def same(compiled, reference):
    """The same type, shape and bytes, or for arrays NaN in the same places
    and the same bytes elsewhere."""
    if isinstance(reference, float):
        return type(compiled) is float and (
            np.float64(compiled).tobytes() == np.float64(reference).tobytes()
            or math.isnan(compiled) and math.isnan(reference))
    nan = np.isnan(reference)
    return (type(compiled) is np.ndarray and compiled.shape == reference.shape
            and np.array_equal(np.isnan(compiled), nan)
            and compiled[~nan].tobytes() == reference[~nan].tobytes())


@pytest.mark.skipif(not HAS_LIB, reason="no compiled library")
@settings(max_examples=300, deadline=None)
@given(specs, samples)
@example(PenaltySpec("log", 1e308), [1e300, -0.0, 0.0, -1e-300, 5.0])
@example(PenaltySpec("atan", 1e160), [-0.0])
@example(PenaltySpec("log", 2.0**52), EDGE[:2])
@example(PenaltySpec("atan", 2.0**52), EDGE[:3])
@example(PenaltySpec("rational", 1e160), EDGE[:4])
@example(PenaltySpec("log", 1e308), EDGE[:5])
@example(PenaltySpec("atan", 1e160), EDGE[:6])
@example(PenaltySpec("rational", 2.0**55), EDGE[:7])
@example(PenaltySpec("l1", 0.0), EDGE[:8])
@example(PenaltySpec("rational", 2.0**52), EDGE[:9])
@example(PenaltySpec("log", 1e160), EDGE[:15])
@example(PenaltySpec("atan", 2.0**55), EDGE[:16])
@example(PenaltySpec("rational", 1e308), EDGE[:17])
@example(PenaltySpec("atan", 2.0**52), EDGE[:31])
@example(PenaltySpec("log", 2.0**55), EDGE)
def test_maps_give_the_reference_bytes(spec, values):
    x = np.array(values, dtype=float)
    for method in (spec.value, spec.residual_deriv):
        for arg in layouts(x):
            compiled, reference = on_both(lambda: method(arg))
            assert same(compiled, reference), (method.__name__, arg)
            if isinstance(compiled, np.ndarray) and not np.isnan(arg).any():
                assert compiled.tobytes() == reference.tobytes()


@pytest.mark.skipif(not HAS_LIB, reason="no compiled library")
@settings(max_examples=100, deadline=None)
@given(specs, samples, st.integers(0, 2**32 - 1))
def test_nan_inputs_give_nan_in_the_same_places(spec, values, seed):
    x = np.array(values + [0.0, 1.0], dtype=float)
    x[np.random.default_rng(seed).random(x.size) < 0.3] = np.nan
    x[-1] = np.nan
    for method in (spec.value, spec.residual_deriv):
        for arg in layouts(x):
            compiled, reference = on_both(lambda: method(arg))
            assert same(compiled, reference), (method.__name__, arg)


@pytest.mark.skipif(not HAS_LIB, reason="no compiled library")
@settings(max_examples=200, deadline=None)
@given(finite_samples, specs, specs, st.sampled_from([0.0, 0.3, 2.0]),
       st.sampled_from([0.0, 0.5, 3.0]), st.integers(0, 2**32 - 1))
def test_objective_and_majorized_input_give_the_same_bytes(values, spec0, spec1, lam0, lam1,
                                                           seed):
    x = np.array(values)
    y = x + np.random.default_rng(seed).normal(0.0, 1.0, x.size)
    cfg = CncConfig(lam0, lam1, spec0, spec1, allow_nonconvex=True)
    compiled, reference = on_both(lambda: (objective(x, y, cfg), majorized_input(x, y, cfg)))
    assert np.float64(compiled[0]).tobytes() == np.float64(reference[0]).tobytes()
    assert compiled[1].tobytes() == reference[1].tobytes()


@pytest.mark.skipif(not HAS_LIB, reason="no compiled library")
@pytest.mark.parametrize("kind", KINDS)
def test_compiled_maps_call_no_reference(kind, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the Python map ran")

    monkeypatch.setattr(PenaltySpec, "_phi", forbidden)
    monkeypatch.setattr(PenaltySpec, "_slope", forbidden)
    spec = PenaltySpec(kind, 0.7)
    for arg in (np.linspace(-3.0, 3.0, 301), np.empty(0), 0.5, np.array(-2.0), [[1.0, -0.0]]):
        spec.value(arg), spec.residual_deriv(arg)
    y = np.random.default_rng(3).normal(0.0, 1.0, 50)
    solve(y, CncConfig(0.3, 1.0, spec, PenaltySpec(kind, 0.05)))


@pytest.mark.skipif(not HAS_LIB, reason="no compiled library")
@pytest.mark.parametrize("spec", [PenaltySpec("log", 1e308), PenaltySpec("atan", 4e307),
                                  PenaltySpec("rational", 1e200)])
def test_references_are_quiet_past_overflow(spec):
    """Where a*|x| is past the largest float, and for atan where
    sqrt(3)*a*|x| is, _phi and _slope warn of nothing, as the compiled maps
    do, and give their bytes: s' is -sign(x), the log phi inf and the atan
    phi its limit."""
    x = np.array([-1e200, -3e108, -10.0, -3.0, -1.0, -0.0, 0.0, 1.0, 3.0, 10.0, 3e108, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compiled = spec.value(x), spec.residual_deriv(x)
        with mock.patch.object(prox, "_tvd_c", None):
            reference = spec.value(x), spec.residual_deriv(x)
    assert [v.tobytes() for v in reference] == [v.tobytes() for v in compiled]
    assert np.all(np.isfinite(reference[0])) or spec.kind == "log"


def parent_check_nonneg(value, name):
    """``prox._check_nonneg`` as it was written with ``np.isfinite``."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, 1e-300, 2.5, 1e308, float("nan"), float("inf"), float("-inf"), -1e-300,
    -5e-324, np.float64(0.5), np.float64("nan"), np.float32(-0.25), np.float16(3.0),
    np.int64(4), 3, -2, 10**400, True, False, "1.5", "-1", "nan", "inf", "abc", None,
    np.array(0.5)])
def test_check_nonneg_accepts_and_rejects_as_before(value):
    def outcome(check):
        try:
            result = check(value, "lam")
        except Exception as exc:  # the type and message are the outcome
            return type(exc), str(exc)
        return type(result), result.hex()

    assert outcome(prox._check_nonneg) == outcome(parent_check_nonneg)
