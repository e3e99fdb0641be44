"""The MM loop of `cnc.solve` against `mm_reference`, the same loop
chained from per-step functions written out in `tests/refsolvers.py`, its
polish included: byte-identical iterates, objective histories, update
counts, stopping flags, certificates and Newton step counts, with either
backend, and over every solve of the criterion-7 sweep, each update's
iterate polished before its oracle; a cap that only truncates the solve; a
stop at a fixed point of the MM map; the last history entry against the
public `objective` and every certificate against the public subgradient
oracle of the returned iterate; the compiled loop (the module's
`mm_solve`) against the Python loop (`cnc._mm_loop_python`, the chain of
the public `fused_lasso_l1`, `objective`, `majorized_input` and
`fused_lasso_optimality_residual`) solve by solve; the public `objective`
and `majorized_input` against the same per-step functions; and solves of a
signal scaled by powers of two, or by factors where F overflows, against
the unscaled solve."""

import contextlib
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cncflsa import (
    KINDS,
    CncConfig,
    NoiseSpec,
    PenaltySpec,
    add_awgn,
    cli,
    fused_lasso_l1,
    fused_lasso_optimality_residual,
    default_pulse_spec,
    generate_pulses,
    lambda1_heuristic,
    majorized_input,
    objective,
    prox,
    rmse,
    select_a1,
    solve,
)

from refsolvers import mm_objective, mm_reference, mm_shifted_input


def backend(name):
    """Context in which tvd runs the named backend ("c" is the default, and
    runs the Python kernel only when no compiler is available)."""
    return mock.patch.object(prox, "_tvd_c", None) if name == "python" else contextlib.nullcontext()


def same_bytes(result, reference):
    return (result.x.tobytes() == reference.x.tobytes()
            and result.objective_history.tobytes() == reference.objective_history.tobytes()
            and (result.iterations, result.converged, result.newton_steps)
            == (reference.iterations, reference.converged, reference.newton_steps)
            and np.float64(result.certificate).hex() == np.float64(reference.certificate).hex())


def step_signal(args):
    """Noisy piecewise-constant signal; with zeros=True every third sample
    is replaced by -0.0."""
    seed, n, zeros = args
    rng = np.random.default_rng(seed)
    y = np.cumsum(3.0 * rng.standard_normal(n) * (rng.random(n) < 0.05)) + rng.normal(0.0, 0.5, n)
    if zeros:
        y[::3] = -0.0
    return y.tolist()


signals = st.one_of(
    st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0]), min_size=1, max_size=3),
    st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=40),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 2000), st.booleans()).map(step_signal),
)
# Zero weights (drawn as the lower end) run the degenerate solves, zero
# degrees a plain l1 penalty.
weights = st.floats(0.0, 5.0)
degrees = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
# A cap of 1 or 3 updates with a tight tol stops most solves at max_iter.
caps = st.sampled_from([(1, 1e-9), (3, 1e-15), (50, 1e-9)])


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@settings(max_examples=150, deadline=None)
@given(signals, st.sampled_from(KINDS), weights, weights, degrees, degrees, caps)
@example([-0.0], "atan", 0.5, 1.0, 0.5, 0.5, (50, 1e-9))
@example([-0.0, 2.0, -0.0], "log", 0.0, 1.0, 0.0, 0.2, (50, 1e-9))
@example([1.0, -0.0, 3.0, 3.0], "rational", 0.4, 0.0, 1.0, 0.0, (2, 1e-15))
# A full Newton step lands two segment values exactly on 0, which the
# polish counts as a merge round; a reference that saw a merge only where a
# value crossed 0 halved the step there instead.
@example(step_signal((0, 7, True)), "log", 0.0, 4.38e-81, 0.0, 1.0, (3, 1e-15))
def test_solve_matches_mm_reference_bytes(tvd_backend, values, kind, lam0, lam1, a0, a1, cap):
    max_iter, tol = cap
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind, a0), PenaltySpec(kind, a1),
                    max_iter=max_iter, tol=tol, allow_nonconvex=True)
    y = np.array(values)
    with backend(tvd_backend):
        assert same_bytes(solve(y, cfg), mm_reference(y, cfg))


@pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")
@settings(max_examples=200, deadline=None)
@given(signals, st.sampled_from(KINDS), st.sampled_from(KINDS), weights, weights, degrees,
       degrees, st.one_of(caps, st.just((50, 1e-300))))
@example([-0.0], "atan", "log", 0.5, 1.0, 0.5, 0.5, (50, 1e-9))
@example([-0.0, 2.0, -0.0], "log", "log", 0.3, 1.0, 0.2, 0.2, (50, 1e-300))
@example([1.0, -0.0, 3.0], "atan", "l1", 0.4, 0.7, 2.5, 0.0, (3, 1e-15))
@example([0.5, 3.0], "rational", "atan", 0.0, 1.0, 1.0, 0.3, (1, 1e-9))
def test_compiled_loop_matches_python_loop_bytes(values, kind0, kind1, lam0, lam1, a0, a1, cap):
    max_iter, tol = cap
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind0, a0), PenaltySpec(kind1, a1),
                    max_iter=max_iter, tol=tol, allow_nonconvex=True)
    y = np.array(values)
    compiled = solve(y, cfg)
    with backend("python"):
        assert same_bytes(compiled, solve(y, cfg))


@pytest.mark.skipif(prox.TVD_BACKEND != "c", reason="no compiled library")
@pytest.mark.parametrize("lam0, lam1, kind1", [(0.0, 1.5, "log"), (0.4, 0.0, "log"),
                                               (0.3, 1.5, "log"), (0.8, 1.5, "l1")])
def test_compiled_oracle_stops_where_the_python_loop_does(lam0, lam1, kind1):
    """The oracle's weight cases with a nonzero weight, the three in which a
    polish runs (with both weights 0 every solve stops on its first
    update's iterate): on seeded step signals, every other one rounded to
    0.1, the compiled loop stops on the same iterates, each polished, with
    the same certificates, as the Python loop, which calls the public
    oracle.
    A port that never passes would run every solve to its cap, where it
    reports the whole residual, which the stop agreement alone cannot see.
    With an l1 difference penalty the rounded signals give iterates whose
    chain has small positive gaps that pass tol, after which the interval
    restarts from one of its ends."""
    rng = np.random.default_rng(17)
    stops = 0
    for trial in range(40):
        n = int(rng.integers(20, 300))
        y = np.cumsum(2.0 * rng.standard_normal(n) * (rng.random(n) < 0.05))
        y += rng.normal(0.0, 0.4, n)
        if trial % 2:
            y = np.round(y, 1)
        cfg = CncConfig(lam0, lam1, PenaltySpec("atan", 0.5 / lam0 if lam0 else 0.0),
                        PenaltySpec(kind1, 0.1 / lam1 if lam1 else 0.0))
        compiled = solve(y, cfg)
        with backend("python"):
            reference = solve(y, cfg)
        assert same_bytes(compiled, reference)
        stops += reference.converged
    assert stops >= 10


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
def test_a_fixed_point_of_the_mm_map_stops_the_solve(tvd_backend):
    """With both penalties l1 every shifted input is y, so the first
    update's shifted input is the one it solved on, bit for bit, and every
    later update would repeat it.  At tol 1e-300, below the oracle's
    rounding floor, its oracle misses tol, so the solve stops after that
    update, unconverged, with no Newton step and the x, F and certificate
    of a solve capped at 1 update, rather than repeat it up to its cap."""
    y = np.random.default_rng(0).normal(0.0, 2.0, 50)
    cfg = CncConfig(0.3, 1.0, PenaltySpec("l1"), PenaltySpec("l1"), max_iter=20, tol=1e-300)
    with backend(tvd_backend):
        result = solve(y, cfg)
        capped = solve(y, dataclasses.replace(cfg, max_iter=1))
        assert same_bytes(result, mm_reference(y, cfg))
    assert (result.iterations, result.newton_steps, result.converged) == (1, 0, False)
    assert result.certificate > 0.0 and same_bytes(result, capped)


def capped_problems(count):
    """count seeded noisy step signals of 20 to 200 samples, each with
    random kinds, not both l1, and random weights and degrees inside the
    convexity budget, at tol 1e-14."""
    rng = np.random.default_rng(5)
    problems = []
    while len(problems) < count:
        kind0, kind1 = (str(kind) for kind in rng.choice(KINDS, 2))
        if kind0 == kind1 == "l1":
            continue
        n = int(rng.integers(20, 200))
        y = np.repeat(rng.normal(0.0, 2.0, 10) * (rng.random(10) < 0.7), n // 10 + 1)[:n]
        y += rng.normal(0.0, 0.5, n)
        lam0, lam1, u = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 3.0)), rng.random()
        a0, a1 = u / lam0, float(rng.uniform(0.0, 1.0 - u)) / (4.0 * lam1)
        problems.append((y, CncConfig(lam0, lam1, PenaltySpec(kind0, a0),
                                      PenaltySpec(kind1, a1), tol=1e-14)))
    return problems


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
def test_a_cap_only_truncates_the_solve(tvd_backend):
    """Every update polishes its iterate, capped or not, so a cap of k
    updates only truncates a solve: over 100 seeded problems, for every k
    below the uncapped solve's update count, the history of the solve
    capped at k is the first k + 1 entries of the uncapped one's, bit for
    bit.  Where the last update of a capped solve skipped its polish, 70
    of these 121 capped solves were not."""
    capped = 0
    with backend(tvd_backend):
        for y, cfg in capped_problems(100):
            full = solve(y, cfg).objective_history
            for k in range(1, full.size - 1):
                history = solve(y, dataclasses.replace(cfg, max_iter=k)).objective_history
                assert history.tobytes() == full[:k + 1].tobytes(), (cfg, k)
                capped += 1
    assert capped == 121


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@pytest.mark.parametrize("kind", ["atan", "rational"])
def test_overflowing_slope_gives_a_finite_solve(tvd_backend, kind):
    """mdfl (a0 = 1/lambda0, margin 0) with lambda0 = 1e-160: a0*|x| is
    about 1e160, where the squares in s' overflow."""
    y = np.random.default_rng(0).standard_normal(50)
    cfg = CncConfig(1e-160, 1.0, PenaltySpec(kind, 1e160), PenaltySpec(kind, 0.0))
    with backend(tvd_backend):
        result = solve(y, cfg)
        assert same_bytes(result, mm_reference(y, cfg))
    assert np.all(np.isfinite(result.x)) and np.all(np.isfinite(result.objective_history))


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
def test_atan_phi_takes_its_limit_where_a_x_overflows(tvd_backend):
    """mdfl with lambda0 = 1e-300, margin 0: a0*|x| of the 1e9 samples is
    past the largest float, where sqrt(3)*u/(2 + u) read inf/inf = NaN, so
    F was NaN and the solve ran to max_iter unconverged.  phi takes its
    limit there, and F is finite."""
    y = np.array([0.0, 1e9, 1e9, 0.0, 3.0, 2.0, 0.0])
    cfg = CncConfig(1e-300, 1.0, PenaltySpec("atan", 1e300), PenaltySpec("atan", 0.0))
    with backend(tvd_backend):
        result = solve(y, cfg)
        assert same_bytes(result, mm_reference(y, cfg))
    assert result.converged and result.iterations == 1
    assert np.all(np.isfinite(result.objective_history))


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
def test_rational_phi_takes_its_limit_where_half_a_x_overflows(tvd_backend):
    """Where 0.5*a*|x| is past the largest float, |x|/(1 + 0.5*a*|x|)
    read 0, though phi rises to its limit 2/a, so F dropped the term.  phi
    takes that limit there, in value and in objective."""
    spec = PenaltySpec("rational", 1e200)
    x = np.array([1e108, -3.5e108, 1e200, -1e300, 1.7e308])
    cfg = CncConfig(1.0, 0.0, spec, PenaltySpec(), allow_nonconvex=True)
    with backend(tvd_backend):
        phi, scalar = spec.value(x), spec.value(-1e200)
        f = objective(x[2:3], x[2:3], cfg)
    assert phi[:2] == pytest.approx([2e-200, 2e-200], rel=1e-15)
    assert np.all(phi[2:] == 2.0 / 1e200) and scalar == f == 2.0 / 1e200


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@pytest.mark.parametrize("max_iter", [10**11, 2**70])
def test_a_huge_update_cap_costs_only_the_updates_run(tvd_backend, max_iter):
    """The compiled solve once allocated its history for max_iter + 1
    updates up front, so a cap of 1e11 ran out of memory and one past a C
    long could not be passed; the history now grows with the updates run,
    and the solve is the one under a cap it never reaches."""
    y = np.random.default_rng(8).normal(0.0, 0.5, 300) + np.repeat([0.0, 2.0, -1.0], 100)
    cfg = CncConfig(0.2, 2.0, PenaltySpec("atan", 2.5), PenaltySpec("atan", 0.0625))
    with backend(tvd_backend):
        expected = solve(y, cfg)
        result = solve(y, CncConfig(0.2, 2.0, cfg.penalty0, cfg.penalty1, max_iter=max_iter))
    assert expected.converged and same_bytes(result, expected)


@settings(max_examples=150, deadline=None)
@given(signals, st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.sampled_from(KINDS),
       weights, weights, degrees, degrees)
@example([-0.0], 0, "atan", "log", 0.5, 1.0, 0.5, 0.5)
@example([-0.0, 2.0, -0.0], 1, "rational", "l1", 0.0, 1.0, 1.0, 0.0)
def test_public_steps_match_reference_bytes(values, seed, kind0, kind1, lam0, lam1, a0, a1):
    y = np.array(values)
    x = np.random.default_rng(seed).normal(0.0, 2.0, y.size) * (np.arange(y.size) % 3 != 0)
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind0, a0), PenaltySpec(kind1, a1),
                    allow_nonconvex=True)
    assert objective(x, y, cfg).hex() == mm_objective(x, y, cfg).hex()
    assert majorized_input(x, y, cfg).tobytes() == mm_shifted_input(x, y, cfg).tobytes()


def test_sweep_solves_match_mm_reference(monkeypatch):
    """The 1,800 MM solves of the criterion-7 sweep at seed 0 (mdfl and cnc;
    l1 never calls solve) and the rows they produce."""

    def sweep(solver):
        results = []

        def recording(y, cfg):
            results.append(solver(y, cfg))
            return results[-1]

        monkeypatch.setattr(cli, "solve", recording)
        rows = cli.sweep_sigma([0.25, 0.5, 1.0], 15, 0, 0.25, "atan", ["mdfl", "cnc"])
        return rows, results

    rows, results = sweep(solve)
    ref_rows, ref_results = sweep(mm_reference)
    assert len(results) == len(ref_results) == 1800
    assert all(same_bytes(r, ref) for r, ref in zip(results, ref_results))
    assert rows == ref_rows


@pytest.fixture(scope="module", params=["c", "python"])
def table(request):
    """The backend's name and (y, cfg, result) of the 1,800 MM solves of the
    criterion-7 table at seed 0 (mdfl and cnc; l1 never calls solve) on it,
    run once per backend for the tests that read them."""
    solves = []

    def recording(y, cfg):
        solves.append((y, cfg, solve(y, cfg)))
        return solves[-1][2]

    with mock.patch.object(cli, "solve", recording), backend(request.param):
        cli.sweep_sigma([0.25, 0.5, 1.0], 15, 0, 0.25, "atan", ["mdfl", "cnc"])
    assert len(solves) == 1800
    return request.param, solves


def stop_agrees_with_public_functions(y, cfg, result):
    """The history's last entry is the public objective of x, the
    certificate the public subgradient oracle at x, bit for bit, whether
    the solve certified, ran to its cap or stopped at a fixed point of the
    MM map, and converged says that the certificate met tol."""
    last = np.float64(objective(result.x, y, cfg)).hex()
    oracle = fused_lasso_optimality_residual(majorized_input(result.x, y, cfg), result.x,
                                             cfg.lambda0, cfg.lambda1)
    return (np.float64(result.objective_history[-1]).hex() == last
            and np.float64(result.certificate).hex() == np.float64(oracle).hex()
            and result.converged == (result.certificate <= cfg.tol))


def test_table_stops_agree_with_the_public_functions(table):
    """stop_agrees_with_public_functions over the criterion-7 table's 1,800
    solves at seed 0, on either backend."""
    tvd_backend, solves = table
    with backend(tvd_backend):
        assert all(stop_agrees_with_public_functions(*solved) for solved in solves)


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@settings(max_examples=150, deadline=None)
@given(signals, st.sampled_from(KINDS), st.sampled_from(KINDS), weights, weights, degrees,
       degrees, caps)
@example([-0.0, 2.0, -0.0], "log", "log", 0.0, 1.0, 0.0, 0.2, (50, 1e-9))
@example([1.0, -0.0, 3.0, 3.0], "rational", "atan", 0.4, 0.0, 1.0, 0.0, (50, 1e-9))
@example([1.0, -0.0, 3.0], "atan", "log", 0.0, 0.0, 0.5, 0.5, (50, 1e-9))
@example([2.3, -0.6, -0.7], "log", "rational", 0.1, 1.0, 0.1, 0.4, (1, 1e-300))
@example([2.5, 0.0, -1.5, -0.0, -0.0, 2.9, -3.6, -1.7], "rational", "rational", 0.1, 0.1, 0.2,
         0.1, (3, 1e-15))
def test_solve_stops_agree_with_the_public_functions(tvd_backend, values, kind0, kind1, lam0,
                                                     lam1, a0, a1, cap):
    """stop_agrees_with_public_functions over random solves of either
    backend, each weight 0 included: with the compiled module this pins
    its port of the oracle to the public function.  With both weights 0
    the oracle reads 0 at the first update's iterate.  The capped examples
    stop unconverged, where the compiled oracle, which ends its pass once
    a residual exceeds tol, must report the whole residual."""
    max_iter, tol = cap
    cfg = CncConfig(lam0, lam1, PenaltySpec(kind0, a0), PenaltySpec(kind1, a1),
                    max_iter=max_iter, tol=tol, allow_nonconvex=True)
    y = np.array(values)
    with backend(tvd_backend):
        result = solve(y, cfg)
        assert stop_agrees_with_public_functions(y, cfg, result)
    if lam0 == lam1 == 0.0:
        assert (result.iterations, result.certificate) == (1, 0.0)


def criterion_4_instance():
    """The fixture at sigma = 0.5, noise seed 42, the log penalty on the
    convexity boundary, as in criterion 4, with tol 1e-9 and a cap of 50."""
    clean = generate_pulses(default_pulse_spec())
    y = add_awgn(clean, NoiseSpec(0.5, 42))
    lam1 = lambda1_heuristic(clean.size, 0.5)
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    return y, (lam0, lam1, "log", a0, "log", select_a1(lam0, lam1, a0))


def random_instance(kind0, kind1):
    """A noisy step signal with random weights and degrees inside the
    convexity budget, seeded by kind0."""
    rng = np.random.default_rng(KINDS.index(kind0))
    y = np.repeat(rng.normal(0.0, 2.0, 12) * (rng.random(12) < 0.7), 25)
    y += rng.normal(0.0, 0.5, y.size)
    lam0, lam1 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 3.0))
    a0, a1 = float(rng.uniform(0.0, 0.5)) / lam0, float(rng.uniform(0.0, 0.5)) / (4.0 * lam1)
    return y, (lam0, lam1, kind0, a0, kind1, a1)


def scaled_solve(y, params, k):
    """The solve of y and the weights times 2**k, with the degrees times
    2**-k."""
    lam0, lam1, kind0, a0, kind1, a1 = params
    c = 2.0**k
    cfg = CncConfig(lam0 * c, lam1 * c, PenaltySpec(kind0, a0 / c), PenaltySpec(kind1, a1 / c),
                    max_iter=50, tol=1e-9)
    return solve(y * c, cfg)


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@pytest.mark.parametrize("instance", ["criterion 4", *(
    f"{k0}/{k1}" for k0, k1 in zip(KINDS, KINDS[1:] + KINDS[:1]))])
def test_a_power_of_two_scales_the_solve_exactly(tvd_backend, instance):
    """The stop is relative to F alone, so scaling y and the weights by 2**k
    and the degrees by 2**-k scales x by 2**k and F by 4**k bit for bit and
    stops after the same updates.  The rule tol * max(1, |prev|) was
    absolute where F < 1: criterion 4's instance stopped after 1 update at
    k = -30 and after 4 at k = -8, where the unscaled solve ran 7.  Each
    instance now stops after its first update, on its polished iterate, so
    the polish and the subgradient oracle that stops it must scale exactly
    too."""
    if instance == "criterion 4":
        y, params = criterion_4_instance()
    else:
        y, params = random_instance(*instance.split("/"))
    with backend(tvd_backend):
        base = scaled_solve(y, params, 0)
        assert base.converged
        for k in (-60, -30, -8, 8, 30, 60):
            result = scaled_solve(y, params, k)
            assert (result.iterations, result.converged) == (base.iterations, base.converged), k
            assert (result.x * 2.0**-k).tobytes() == base.x.tobytes(), k
            assert (result.objective_history * 4.0**-k).tobytes() == \
                base.objective_history.tobytes(), k


def readme_problem(c):
    """The README parameterization (cnc, atan, lambda1 = 0.25*sqrt(300)*0.5,
    lambda0 = lambda1/10) on the fixture at sigma = 0.5, noise seed 1, with
    y and the weights times c and the degrees over c: y and the config."""
    clean = generate_pulses(default_pulse_spec())
    y = add_awgn(clean, NoiseSpec(0.5, 1))
    lam1 = 0.25 * np.sqrt(300.0) * 0.5
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    cfg = CncConfig(lam0 * c, lam1 * c, PenaltySpec("atan", a0 / c),
                    PenaltySpec("atan", select_a1(lam0, lam1, a0) / c))
    return y * c, cfg


def readme_solve(c):
    """:func:`solve` of :func:`readme_problem`, any warning raised as an
    error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve(*readme_problem(c))


def test_f_and_rmse_past_overflow_are_one_result_and_quiet():
    """At the l1 start of the README case times 1e154, ||y - x||**2 passes
    the largest float: objective reads inf on both backends, and rmse of
    the same pair, whose squares sum to inf too, the finite RMSE of the
    scaled form, both with no warning."""
    y, cfg = readme_problem(1e154)
    x = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
    results = []
    for name in ("c", "python"):
        with backend(name), warnings.catch_warnings():
            warnings.simplefilter("error")
            results.append((objective(x, y, cfg), rmse(x, y)))
    assert results[0] == results[1]
    f, err = results[0]
    assert f == np.inf
    assert err == pytest.approx(1e154 * rmse(x / 1e154, y / 1e154), rel=1e-14)


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@pytest.mark.parametrize("c", [1e154, 1e160, 1e300, 1e-300])
def test_a_solve_whose_f_overflows_stops_on_its_certificate(tvd_backend, c):
    """From c = 1e154 on, 0.5*||y - x||**2 overflows and F reads inf, and at
    c = 1e-300 it underflows to 0.  The rule on the change of F ran all 50
    updates unconverged there; the certificate reads no F, and these solves
    certify, after 32 updates from c = 1e154 on and after 4 at c = 1e-300
    (1 at c = 1): from c = 1e154 on the polish's segment objective
    overflows with F, so the polish takes no step there.  Both
    backends solve with no warning; the Python polish once warned of the
    overflow of its segment sums.  x/c then stays within 3.5e-9 of the
    c = 1 solve (max|x| = 2.2); the bound is 1e-8."""
    with backend(tvd_backend):
        base, result = readme_solve(1.0), readme_solve(c)
    assert base.converged and result.converged and result.iterations < 50
    assert result.certificate <= 1e-9
    assert np.max(np.abs(result.x / c - base.x)) <= 1e-8


@pytest.mark.parametrize("tvd_backend", ["c", "python"])
@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_a_long_solve_certifies_in_four_updates(tvd_backend, seed):
    """The README parameterization on the fixture tiled to 30,000 samples at
    sigma = 0.5 (a denoise_long item of the benchmark).  Its iterates keep
    about 2,000 segments, and a few of them are wrong after each update.
    A polish that stopped at the first value or jump to reach 0 fixed one
    per update, and these solves took 9 to 11 updates; the merge rounds
    fuse and zero them all at once: each solve took 3, and now stops
    after its second update, whose polished iterate the oracle
    certifies."""
    clean = np.tile(generate_pulses(default_pulse_spec()), 100)
    y = add_awgn(clean, NoiseSpec(0.5, seed))
    lam1 = 0.25 * np.sqrt(300.0) * 0.5
    lam0 = 0.1 * lam1
    a0 = 0.5 / lam0
    cfg = CncConfig(lam0, lam1, PenaltySpec("atan", a0),
                    PenaltySpec("atan", select_a1(lam0, lam1, a0)))
    with backend(tvd_backend):
        result = solve(y, cfg)
    assert result.converged and result.iterations <= 4
