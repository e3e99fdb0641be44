"""The compiled module's `soft_threshold`, `shifted_input` and `total`
entries, which `prox.soft_threshold`, `cnc.majorized_input` and
`prox._total` (the sums of `cnc.objective` and `signalgen.rmse`) call,
against their numpy references: the same bytes on inputs of any shape,
layout and size; one call into the module per public step of a solve's
start, whatever the input's layout; and the fallback to Python when the
module lacks any of its entries."""

import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import KINDS, CncConfig, PenaltySpec, majorized_input, objective, prox, solve
from cncflsa.prox import _diff_adjoint, fused_lasso_l1, soft_threshold

from suites import strided, unaligned

HAS_LIB = prox.TVD_BACKEND == "c"

lib_only = pytest.mark.skipif(not HAS_LIB, reason="no compiled library")

# Magnitudes from subnormal to near the largest float, both zeros, and the
# threshold's own value, so that |x| == lam and |x| - lam == 0 occur.
specials = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.25, -0.25, 1e300,
                            -1e300, 1.7e308, -1.7e308])
values = st.lists(st.one_of(specials, st.floats(allow_nan=False, allow_infinity=False)),
                  max_size=40)
lams = st.one_of(st.sampled_from([0.0, 0.25, 1.0, 1e300, 5e-324]),
                 st.floats(0.0, 1e308, allow_nan=False))


def numpy_soft_threshold(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def layouts(x):
    """x as given, 0-d, in two dimensions, strided and transposed (which
    soft_threshold copies before the module reads them), read-only and as
    a list."""
    readonly = x.copy()
    readonly.flags.writeable = False
    grid = np.resize(x, (3, x.size))
    out = [x, grid, x[::2], grid.T, readonly, x.tolist()]
    if x.size:
        out += [np.array(x[0]), float(x[0])]
    return out


def same_bytes(a, b):
    return type(a) is type(b) and np.asarray(a).shape == np.asarray(b).shape and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes())


@lib_only
@settings(max_examples=300, deadline=None)
@given(values, lams)
@example([0.25, -0.25, 0.0, -0.0, 1.0], 0.25)
@example([1e300, -1e300, 1.7e308, 5e-324, -0.0], 1e300)
@example([0.0, -0.0, 3.0, -3.0], 0.0)
@example([], 1.0)
def test_soft_threshold_gives_the_reference_bytes(values, lam):
    x = np.array(values, dtype=float)
    assert prox._tvd_c.soft_threshold(x, lam).tobytes() == numpy_soft_threshold(x, lam).tobytes()
    for arg in layouts(x):
        compiled = soft_threshold(arg, lam)
        with mock.patch.object(prox, "_tvd_c", None):
            reference = soft_threshold(arg, lam)
        assert same_bytes(compiled, reference), arg


def numpy_shifted_input(y, lam0, ds0, lam1, ds1):
    out = y - lam0 * ds0
    if ds1.size:
        out -= lam1 * _diff_adjoint(ds1)
    return out


sizes = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 2000))
weights = st.sampled_from([0.0, 0.3, 2.0, 1e300])


@lib_only
@settings(max_examples=200, deadline=None)
@given(sizes, weights, weights, st.integers(0, 2**32 - 1))
@example(1, 0.0, 2.0, 0)
@example(2, 0.3, 0.0, 1)
@example(3, 2.0, 2.0, 2)
def test_shifted_input_gives_the_reference_bytes(n, lam0, lam1, seed):
    """Random rows with -0.0, 0.0 and s' limits of +-1 mixed in."""
    rng = np.random.default_rng(seed)
    y, ds0, ds1 = rng.normal(0.0, 3.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
    for row in (ds0, ds1):
        row[rng.random(row.size) < 0.2] = rng.choice([0.0, -0.0, 1.0, -1.0])
    with np.errstate(over="ignore"):
        want = numpy_shifted_input(y, lam0, ds0, lam1, ds1)
    assert prox._tvd_c.shifted_input(y, lam0, ds0, lam1, ds1).tobytes() == want.tobytes()


@lib_only
@settings(max_examples=100, deadline=None)
@given(sizes, st.sampled_from(KINDS), st.sampled_from(KINDS), st.sampled_from([0.0, 0.3]),
       st.sampled_from([0.0, 0.5, 3.0]), st.integers(0, 2**32 - 1))
@example(1, "atan", "log", 0.3, 3.0, 0)
@example(2, "rational", "atan", 0.0, 0.5, 1)
@example(3, "log", "rational", 0.3, 0.0, 2)
def test_majorized_input_gives_the_reference_bytes(n, kind0, kind1, lam0, lam1, seed):
    """Through the public function, every kind, contiguous and strided y."""
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, 3.0, 2 * n)
    y = v + rng.normal(0.0, 1.0, 2 * n)
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind0, 0.7), PenaltySpec(kind1, 0.05),
                    allow_nonconvex=True)
    for args in ((v[:n], y[:n]), (v[::2], y[::2]), (v[:n].tolist(), y[1::2])):
        compiled = majorized_input(*args, cfg)
        with mock.patch.object(prox, "_tvd_c", None):
            reference = majorized_input(*args, cfg)
        assert compiled.tobytes() == reference.tobytes()


# Both zeros, subnormals, and magnitudes whose squares, or whose sums,
# overflow to inf.
SUM_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e200, -1e200, 1.7e308,
                      -1.7e308])


@lib_only
@pytest.mark.parametrize("share", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, 1000, 30000])
def test_total_gives_numpys_bytes_on_both_backends_quietly(n, share):
    """prox._total(a) and prox._total(a, b) give the bytes of np.add.reduce(a)
    and of d = a - b; d *= d; np.add.reduce(d), within and beyond numpy's
    pairwise blocks of 8 and 128, with a share of the samples drawn from
    SUM_EDGES; on the compiled backend and the Python one alike, neither
    warns."""
    rng = np.random.default_rng(n)
    a, b = rng.normal(0.0, 3.0, (2, n))
    for row in (a, b):
        pick = rng.random(n) < share
        row[pick] = rng.choice(SUM_EDGES, int(pick.sum()))
    with np.errstate(all="ignore"):
        d = a - b
        d *= d
        want = [np.add.reduce(a).tobytes(), np.add.reduce(d).tobytes()]
    for lib in (prox._tvd_c, None):
        with mock.patch.object(prox, "_tvd_c", lib), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [prox._total(a), prox._total(a, b)]
        assert all(type(v) is float for v in got)
        assert [np.float64(v).tobytes() for v in got] == want


class Counting:
    """The compiled module, recording the name of each entry called."""

    def __init__(self, module):
        self.module, self.calls = module, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.module, name)


@lib_only
def test_each_start_step_makes_one_compiled_call_after_its_checks(monkeypatch):
    """Each public step of a solve's start calls the module once for its
    work, after the finiteness checks of its inputs, and no numpy
    expression, on contiguous, strided and unaligned input alike."""
    counting = Counting(prox._tvd_c)
    monkeypatch.setattr(prox, "_tvd_c", counting)
    monkeypatch.setattr(PenaltySpec, "_finish", None)
    base = np.random.default_rng(4).normal(0.0, 1.0, 300)
    cfg = CncConfig(0.1, 1.0, PenaltySpec("atan", 5.0), PenaltySpec("log", 0.1))
    for y in (base, strided(base), unaligned(base)):
        check_start_calls(counting, y, cfg)


def check_start_calls(counting, y, cfg):
    steps = [
        (lambda: soft_threshold(y, 0.5), ["all_finite", "soft_threshold"]),
        (lambda: cfg.penalty0.value(y), ["penalty_map"]),
        (lambda: fused_lasso_l1(y, 0.1, 1.0), ["all_finite", "tvd", "all_finite",
                                               "soft_threshold"]),
        (lambda: objective(y, y, cfg), ["all_finite", "all_finite", "total", "penalty_map",
                                        "total", "penalty_map", "total"]),
        (lambda: majorized_input(y, y, cfg), ["all_finite", "all_finite", "penalty_map",
                                              "penalty_map", "shifted_input"]),
    ]
    for step, calls in steps:
        counting.calls.clear()
        step()
        assert counting.calls == calls


@lib_only
@pytest.mark.parametrize("entry", prox._ENTRIES)
def test_fallback_when_the_library_lacks_the_entry(entry, monkeypatch):
    """A module without any one of the entries leaves the package on its
    Python backend."""
    names = [name for name in prox._ENTRIES if name != entry]
    lacking = types.SimpleNamespace(**{name: getattr(prox._tvd_c, name) for name in names})
    monkeypatch.setattr(prox, "_load", lambda path: lacking)
    assert prox._select_backend() == (None, "python")
    setattr(lacking, entry, getattr(prox._tvd_c, entry))
    assert prox._select_backend() == (lacking, "c")


@lib_only
def test_the_python_backend_gives_the_bits_of_the_module(monkeypatch):
    """After a fallback, every public step gives the bits it gave with the
    module."""
    y = np.random.default_rng(6).normal(0.0, 1.0, 300)
    cfg = CncConfig(0.3, 2.0, PenaltySpec("atan", 1.0), PenaltySpec("log", 0.05))

    def run():
        result = solve(y, cfg)
        return [v.tobytes() for v in (result.x, result.objective_history,
                                      cfg.penalty0.value(y), cfg.penalty1.residual_deriv(y),
                                      soft_threshold(y, 0.3), majorized_input(y, y, cfg))]

    expected = run()
    monkeypatch.setattr(prox, "_tvd_c", None)
    assert run() == expected
