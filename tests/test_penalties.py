import warnings

import numpy as np
import pytest

from cncflsa import KINDS, PenaltySpec

from refsolvers import curvature_terms, penalty_terms
from suites import A_VALUES, check_majorizer_domination, check_penalty_properties

LN2 = np.log(2.0)


class TestValue:
    def test_log_at_one(self):
        assert PenaltySpec("log", 1.0).value(1.0) == pytest.approx(LN2, abs=1e-15)

    def test_log_a0_is_abs(self):
        assert PenaltySpec("log", 0.0).value(-2.5) == 2.5

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("a", A_VALUES)
    def test_zero_at_origin(self, kind, a):
        assert PenaltySpec(kind, a).value(0.0) == 0.0

    def test_rational_at_one(self):
        assert PenaltySpec("rational", 1.0).value(1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_atan_reduces_to_abs_continuously(self):
        # small a must approach |x|, not blow up
        x = np.array([-3.0, -0.5, 0.2, 7.0])
        out = PenaltySpec("atan", 1e-9).value(x)
        assert np.max(np.abs(out - np.abs(x))) < 1e-7

    def test_l1_kind_ignores_a(self):
        x = np.linspace(-4, 4, 101)
        np.testing.assert_array_equal(PenaltySpec("l1", 7.0).value(x), np.abs(x))
        assert PenaltySpec("l1", 7.0).a == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_a_is_l1(self, kind):
        spec = PenaltySpec(kind, 0.0)
        assert spec == PenaltySpec("l1") and spec.kind == "l1"

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("log", -0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("lp", 1.0)

    @pytest.mark.parametrize("kind", ["log", "atan", "rational"])
    def test_subnormal_a_rejected(self, kind):
        # 2 / (a*sqrt(3)) overflows for a subnormal a, so atan would give
        # NaN at 0 and inf elsewhere; every kind rejects such an a alike.
        for a in (1e-310, 5e-324, np.nextafter(np.finfo(float).tiny, 0.0)):
            with pytest.raises(ValueError, match="normal"):
                PenaltySpec(kind, a)
        p = PenaltySpec(kind, np.finfo(float).tiny)
        x = np.array([0.0, -1.0, 1.0, 1e300])
        assert np.all(np.isfinite(p.value(x))) and np.all(np.isfinite(p.residual_deriv(x)))
        assert p.value(0.0) == 0.0

    def test_huge_atan_a_rejected(self):
        # -4*a in the atan s' overflows past a quarter of the largest float,
        # where s'(0) read NaN and s'(1e-300) -inf.
        top = np.finfo(float).max / 4.0
        for a in (np.nextafter(top, np.inf), 1e308, np.finfo(float).max):
            with pytest.raises(ValueError, match="atan"):
                PenaltySpec("atan", a)
        p = PenaltySpec("atan", top)
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0])
        ds = p.residual_deriv(x)
        assert np.all(np.isfinite(ds)) and ds[0] == ds[1] == 0.0
        np.testing.assert_allclose(ds[2:], [-1.0, 1.0, -1.0], rtol=1e-15)
        for kind in ("log", "rational"):
            assert PenaltySpec(kind, 1e308).a == 1e308


class TestResidual:
    def test_zero_at_origin(self):
        assert PenaltySpec("log", 1.0).residual(0.0) == 0.0

    def test_log_at_one(self):
        assert PenaltySpec("log", 1.0).residual(1.0) == pytest.approx(LN2 - 1.0, abs=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_vanishes_for_a0(self, kind):
        x = np.linspace(-5, 5, 64)
        np.testing.assert_array_equal(PenaltySpec(kind, 0.0).residual(x), np.zeros_like(x))
        np.testing.assert_array_equal(PenaltySpec(kind, 0.0).residual_deriv(x), np.zeros_like(x))

    def test_deriv_at_origin_and_one(self):
        p = PenaltySpec("log", 1.0)
        assert p.residual_deriv(0.0) == 0.0
        assert p.residual_deriv(1.0) == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("a", A_VALUES)
    def test_deriv_is_odd_and_bounded(self, kind, a):
        p = PenaltySpec(kind, a)
        x = np.linspace(-20, 20, 801)
        d = p.residual_deriv(x)
        np.testing.assert_array_equal(d, -p.residual_deriv(-x))
        assert np.max(np.abs(d)) <= 1.0

    def test_matches_value_minus_abs(self):
        # closed forms agree with the defining difference away from 0
        x = np.linspace(0.5, 10, 50)
        for kind in KINDS:
            p = PenaltySpec(kind, 2.0)
            np.testing.assert_allclose(p.residual(x), p.value(x) - np.abs(x), atol=1e-12)


class TestMajorizer:
    def test_touches_penalty(self):
        for kind in KINDS:
            p = PenaltySpec(kind, 1.5)
            for v in (-3.0, -0.2, 0.0, 1.0, 8.0):
                assert p.majorizer(v, v) == pytest.approx(p.value(v), abs=1e-13)

    def test_worked_example(self):
        p = PenaltySpec("log", 1.0)
        expected = 2.0 - 0.5 + (LN2 - 1.0)
        assert p.majorizer(2.0, 1.0) == pytest.approx(expected, abs=1e-14)
        assert p.majorizer(2.0, 1.0) >= p.value(2.0)

    def test_a0_is_plain_abs(self):
        p = PenaltySpec("rational", 0.0)
        x = np.linspace(-4, 4, 41)
        np.testing.assert_array_equal(p.majorizer(x, 1.7), np.abs(x))

    @pytest.mark.parametrize("kind", KINDS)
    def test_domination(self, kind):
        check_majorizer_domination(kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", A_VALUES)
def test_property_suite(kind, a):
    check_penalty_properties(kind, a)


# At |x| = 1e300 the squares in the atan and rational s' overflow, and the
# package and the reference both give the limit -sign(x).
PROBES = np.concatenate([[0.0, -0.0, 1e-300, -5e-324, 1e300, -1.0],
                         np.random.default_rng(8).normal(0.0, 3.0, 250)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", A_VALUES)
def test_value_and_residual_deriv_match_reference_bytes(kind, a):
    p = PenaltySpec(kind, a)
    phi, ds = penalty_terms(kind, a, PROBES)
    assert p.value(PROBES).tobytes() == phi.tobytes()
    assert p.residual_deriv(PROBES).tobytes() == ds.tobytes()
    for v in PROBES[:8]:
        phi, ds = penalty_terms(kind, a, np.array([v]))
        for arg in (float(v), np.float64(v), np.array(v)):
            out = p.value(arg), p.residual_deriv(arg)
            assert [type(o) for o in out] == [float, float]
            assert np.array(out).tobytes() == np.concatenate([phi, ds]).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", A_VALUES)
def test_residual_keeps_the_closed_form_bytes(kind, a):
    """Where the closed forms are finite, residual gives their bits."""
    x = np.concatenate([[0.0, -0.0, 5e-324, -1e-300], np.linspace(-50.0, 50.0, 1001)])
    ax, u = np.abs(x), a * np.abs(x)
    if a == 0.0 or kind == "l1":
        expected = np.zeros_like(x)
    elif kind == "log":
        expected = (np.log1p(u) - u) / a
    elif kind == "atan":
        expected = ((2.0 / np.sqrt(3.0)) * np.arctan(np.sqrt(3.0) * u / (2.0 + u)) - u) / a
    else:
        expected = -(0.5 * a * x * x) / (1.0 + 0.5 * u)
    assert PenaltySpec(kind, a).residual(x).tobytes() == expected.tobytes()


# Where a*|x| overflows, phi < 1420/a, so s is -|x| rounded.  The rational
# a*x*x overflows first, from a*x*x of about 3.6e308 on, and there s is
# -|x| * (0.5*u / (1 + 0.5*u)).
@pytest.mark.parametrize("kind, a, x, expected", [
    ("log", 10.0, 1e308, -1e308), ("atan", 10.0, 1e308, -1e308),
    ("rational", 10.0, 1e308, -1e308), ("rational", 1.0, 1e155, -1e155),
    ("rational", 1e-307, 1e308, -1e308 * (5.0 / 6.0))])
def test_residual_stays_finite_past_overflow(kind, a, x, expected):
    p = PenaltySpec(kind, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (x, -x, np.array([x, 1.0])):
            s = np.atleast_1d(p.residual(v))
            assert s[0] == pytest.approx(expected, rel=1e-15)
            assert np.all(np.isfinite(p.majorizer(v, v)))


@pytest.mark.parametrize("kind", KINDS)
def test_each_method_computes_only_what_it_returns(kind, monkeypatch):
    """residual_deriv needs no transcendental and value no slope."""

    def forbidden(*args):
        raise AssertionError("computed and thrown away")

    p = PenaltySpec(kind, 0.7)
    with monkeypatch.context() as m:
        m.setattr(PenaltySpec, "_finish", forbidden)
        p.residual_deriv(PROBES), p.residual_deriv(0.5)
    with monkeypatch.context() as m:
        m.setattr(PenaltySpec, "_slope", forbidden)
        p.value(PROBES), p.value(0.5)


@pytest.mark.parametrize("kind", ["atan", "rational", "log"])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e160])
def test_slope_stays_finite_past_overflow(kind, a):
    """The squares in the atan and rational s' overflow from a*|x| of about
    1e154 on; s' takes its limit -sign(x) there, with no warning, up to
    a*|x| = 1e300, and keeps the bits of the formula wherever that is
    finite.  Rounding takes |s'| up to two ulps past 1 where a*|x| is
    between 2**52 and 2**56, so the bound allows that.  With a = 1e160 the
    largest x take a*|x| itself past the largest float, where numpy warns
    of the overflow and the log s' read NaN; s' is -sign(x) there too."""
    u = np.concatenate([np.logspace(-3.0, 300.0, 3031), 2.0 ** np.arange(50.0, 997.0, 0.125)])
    x = u / a
    p = PenaltySpec(kind, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = p.residual_deriv(x)
        assert np.array_equal(p.residual_deriv(-x), -ds)
    assert ds.tobytes() == penalty_terms(kind, a, x)[1].tobytes()
    assert np.all(np.isfinite(ds))
    assert np.all(np.abs(ds) <= 1.0 + 4.0 * np.finfo(float).eps)
    assert np.all(ds[a * x >= 2.0**56] == -1.0)
    huge = np.finfo(float).max / 2.0 ** np.arange(0.0, 1000.0, 8.0)
    with np.errstate(over="ignore"):
        ds, past = p.residual_deriv(huge), a * huge >= 2.0**56
    assert ds.tobytes() == penalty_terms(kind, a, huge)[1].tobytes()
    assert np.all(np.isfinite(ds)) and np.all(ds[past] == -1.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("a", [*A_VALUES, 1e160])
def test_residual_deriv2_matches_its_closed_form_bytes(kind, a):
    """s'' against `curvature_terms`, with no warning, on both sides of
    a*|x| = 2**56, past which it is its limit 0, and past the overflow of
    the squares and of a*|x| itself; even, in [-a, 0], -a at 0, and the
    derivative of s' within rounding."""
    u = np.concatenate([[0.0], np.logspace(-3.0, 300.0, 607), 2.0 ** np.arange(50.0, 62.0, 0.25)])
    x = np.concatenate([PROBES, u / (a or 1.0), [np.finfo(float).max]])
    p = PenaltySpec(kind, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curv = p.residual_deriv2(x)
        assert p.residual_deriv2(-x).tobytes() == curv.tobytes()
    assert curv.tobytes() == curvature_terms(p.kind, p.a, x).tobytes()
    assert np.all((curv <= 0.0) & (curv >= -p.a)) and p.residual_deriv2(0.0) == -p.a
    with np.errstate(over="ignore"):
        assert np.all(curv[p.a * np.abs(x) > 2.0**56] == 0.0)
    assert type(p.residual_deriv2(0.5)) is float
    if p.a:
        z = np.linspace(-3.0, 3.0, 61) / p.a
        h = 1e-6 / p.a
        slope = (p.residual_deriv(z + h) - p.residual_deriv(z - h)) / (2.0 * h)
        np.testing.assert_allclose(p.residual_deriv2(z), slope, rtol=1e-6, atol=1e-6 * p.a)
