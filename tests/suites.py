"""Finite-difference property suites shared between the module tests and the
acceptance gate.  Everything here checks the penalty contracts through
independent numerics (central differences, random probes), never through the
closed forms under test.  Also the edge samples that the byte tests of the
compiled maps share, and the unaligned and strided layouts of the layout
tests."""

import numpy as np

from cncflsa import KINDS, PenaltySpec

GRID = np.linspace(-10.0, 10.0, 2001)  # step 0.01
A_VALUES = (0.0, 0.1, 1.0, 10.0)
H1 = 1e-5  # first-derivative step
H2 = 1e-4  # second-derivative step
# Small samples, spikes and steps: with a = 2**52, a*|z| of the large
# values of x and of diff(x) is past 2**56 and of the small ones is not,
# so the lanes past the limit sit between finite ones; with a = 1e160 every
# nonzero lane is past it, where the atan and rational formulas overflow.
# Its prefixes of 2 to 9, 15 to 17, 31 and 33 samples end the 2- and
# 4-lane maps, over x and over diff(x), in every kind of tail.
EDGE = [0.4, 60.0, -0.7, 0.2, 0.5, 40.0, 40.5, 39.8, -0.3, 0.9, -60.0, 0.6, -0.2, 0.8, 0.0,
        -0.9, 50.0, 0.7, -45.0, 45.5, -0.1, 0.3, 70.0, -0.6, -0.0, 55.0, 0.2, -0.5, 30.0,
        30.2, -0.8, 0.1, -70.0]


def unaligned(a):
    """A copy of the float64 array a at an odd address, which numpy marks
    unaligned."""
    out = np.frombuffer(bytearray(a.nbytes + 1), offset=1)
    out[:] = a
    assert not out.flags.aligned
    return out


def strided(a):
    """A copy of the float64 array a as a view with stride 2."""
    return np.repeat(a, 2)[::2]


def second_diff(f, x, h):
    """Central second difference built from one-sided slopes with the
    exactly-representable per-side steps, so exactly linear regions come out
    as exactly zero instead of stencil-rounding noise."""
    xp = x + h
    xm = x - h
    hp = xp - x
    hm = x - xm
    slope_right = (f(xp) - f(x)) / hp
    slope_left = (f(x) - f(xm)) / hm
    return 2.0 * (slope_right - slope_left) / (hp + hm)


def check_penalty_properties(kind, a):
    """Assert the full Assumption-style property set for one (kind, a)."""
    p = PenaltySpec(kind, a)
    x = GRID
    pos = x[x > 1e-12]

    # symmetry, exact
    np.testing.assert_array_equal(p.value(x), p.value(-x))

    # monotone increasing on the positive axis
    dphi = (p.value(pos + H1) - p.value(pos - H1)) / (2 * H1)
    assert np.all(dphi > 0.0), f"{kind} a={a}: penalty not increasing on x>0"

    # concave on the positive axis
    d2phi = second_diff(p.value, pos, H2)
    assert np.all(d2phi <= 1e-8), f"{kind} a={a}: penalty not concave on x>0"

    # unit slope at the origin
    h = 1e-6
    slope = (p.value(h) - p.value(0.0)) / h
    assert abs(slope - 1.0) <= 1e-4, f"{kind} a={a}: slope at 0 is {slope}"

    # residual curvature within [-a, 0], including near 0
    d2s = second_diff(p.residual, x, H2)
    a_eff = p.a  # "l1" normalizes a to 0
    assert np.all(d2s >= -a_eff - 1e-6), f"{kind} a={a}: residual curvature below -a"
    assert np.all(d2s <= 1e-8), f"{kind} a={a}: residual curvature above 0"

    # analytic residual derivative vs central difference, away from 0
    far = x[np.abs(x) > 1e-3]
    ds = (p.residual(far + H1) - p.residual(far - H1)) / (2 * H1)
    assert np.max(np.abs(p.residual_deriv(far) - ds)) <= 1e-6, (
        f"{kind} a={a}: residual derivative mismatch"
    )

    # residual is nonpositive and vanishes at 0
    assert np.all(p.residual(x) <= 0.0)
    assert p.residual(0.0) == 0.0

    # a = 0 collapses to the absolute value, bit for bit
    if a == 0.0:
        np.testing.assert_array_equal(p.value(x), np.abs(x))


def check_majorizer_domination(kind, seed=20260809):
    """Random-probe domination check over 10^4 (x, v, a) triples: the
    majorizer never dips below the penalty and touches it at x = v."""
    rng = np.random.default_rng(seed)
    worst_dom = np.inf
    worst_touch = 0.0
    for a in rng.uniform(0.0, 10.0, 100):
        p = PenaltySpec(kind, a)
        x = rng.uniform(-10.0, 10.0, 100)
        v = rng.uniform(-10.0, 10.0, 100)
        worst_dom = min(worst_dom, np.min(p.majorizer(x, v) - p.value(x)))
        worst_touch = max(worst_touch, np.max(np.abs(p.majorizer(v, v) - p.value(v))))
    assert worst_dom >= -1e-12, f"{kind}: majorizer dips below penalty by {-worst_dom}"
    assert worst_touch <= 1e-12, f"{kind}: majorizer misses touch by {worst_touch}"
    return worst_dom, worst_touch


def run_full_penalty_suite():
    for kind in KINDS:
        for a in A_VALUES:
            check_penalty_properties(kind, a)
