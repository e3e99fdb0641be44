import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cncflsa import (
    CncConfig,
    ConvexityError,
    PenaltySpec,
    cnc,
    convexity_margin,
    convexity_margin_params,
    fused_lasso_l1,
    majorized_input,
    objective,
    select_a1,
    solve,
)
from cncflsa.cnc import method_params

KINDS = ("l1", "log", "atan", "rational")


def make_cfg(lam0, lam1, a0, a1, kind="log", **kw):
    return CncConfig(lam0, lam1, PenaltySpec(kind, a0), PenaltySpec(kind, a1), **kw)


def random_convex_cfg(rng, kinds=KINDS):
    lam0 = float(rng.uniform(0.05, 2.0))
    lam1 = float(rng.uniform(0.05, 2.0))
    u = float(rng.uniform(0.0, 1.0))
    v = float(rng.uniform(0.0, 1.0 - u))
    cfg = CncConfig(
        lam0,
        lam1,
        PenaltySpec(str(rng.choice(kinds)), u / lam0),
        PenaltySpec(str(rng.choice(kinds)), v / (4.0 * lam1)),
    )
    assert convexity_margin(cfg) >= -1e-12
    return cfg


def random_piecewise(rng, n, block=6, noise=0.7):
    base = np.repeat(rng.normal(0.0, 2.0, n // block + 1), block)[:n]
    return base + rng.normal(0.0, noise, n)


class TestConvexityMargin:
    def test_boundary_pair(self):
        assert convexity_margin(make_cfg(1.0, 1.0, 0.5, 0.125)) == 0.0

    def test_violating_pair(self):
        margin = convexity_margin(make_cfg(1.0, 1.0, 0.5, 1.0 / 3.0, allow_nonconvex=True))
        assert margin == pytest.approx(1.0 - 0.5 - 4.0 / 3.0, abs=1e-12)

    def test_pure_l1(self):
        assert convexity_margin(make_cfg(3.7, 0.9, 0.0, 0.0)) == 1.0

    def test_l1_kind_normalization(self):
        # kind "l1" ignores a, so the margin stays 1
        cfg = CncConfig(2.0, 2.0, PenaltySpec("l1", 5.0), PenaltySpec("l1", 5.0))
        assert convexity_margin(cfg) == 1.0

    def test_raw_params(self):
        assert convexity_margin_params(0.6, 0.9, 0.9 / 0.6, 0.1 / 3.6) == pytest.approx(0.0, abs=1e-12)


class TestSelectA1:
    def test_reference_values(self):
        assert select_a1(0.6, 0.9, 0.9 / 0.6) == pytest.approx(0.1 / 3.6, abs=1e-12)

    def test_zero_a0_gets_full_budget(self):
        assert select_a1(2.0, 0.5, 0.0) == pytest.approx(1.0 / 2.0, abs=1e-15)

    def test_full_a0_budget_gives_zero(self):
        for lam0 in (0.3, 0.6, 1.7):
            assert select_a1(lam0, 1.0, 1.0 / lam0) == pytest.approx(0.0, abs=1e-12)

    def test_margin_is_zero_on_the_line(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam0, lam1 = rng.uniform(0.1, 3.0, 2)
            a0 = rng.uniform(0.0, 1.0) / lam0
            a1 = select_a1(lam0, lam1, a0)
            assert abs(convexity_margin_params(lam0, lam1, a0, a1)) <= 1e-12

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError):
            select_a1(1.0, 1.0, 1.5)

    def test_nonpositive_lambdas_rejected(self):
        with pytest.raises(ValueError):
            select_a1(0.0, 1.0, 0.5)


class TestMethodParams:
    def test_named_methods(self):
        assert method_params("l1", 0.4, 2.0) == (0.0, 0.0)
        assert method_params("mdfl", 0.4, 2.0) == (1.0 / 0.4, 0.0)
        assert method_params("cnc", 0.4, 2.0) == (0.5 / 0.4, select_a1(0.4, 2.0, 0.5 / 0.4))

    def test_given_values_win(self):
        assert method_params("mdfl", 0.4, 2.0, a1=0.01) == (1.0 / 0.4, 0.01)
        assert method_params("cnc", 0.4, 2.0, a0=0.3) == (0.3, select_a1(0.4, 2.0, 0.3))
        assert method_params("l1", 0.4, 2.0, 0.2, 0.1) == (0.2, 0.1)

    def test_disabled_weight_leaves_nonconvexity_off(self):
        assert method_params("cnc", 0.0, 2.0) == (0.0, 0.0)
        assert method_params("mdfl", 0.0, 2.0) == (0.0, 0.0)
        assert method_params("cnc", 0.4, 0.0) == (0.5 / 0.4, 0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            method_params("tv", 0.4, 2.0)


class TestObjectives:
    def test_zero_estimate(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, 30)
        cfg = make_cfg(0.7, 0.9, 1.0, 0.2)
        assert objective(np.zeros_like(y), y, cfg) == pytest.approx(0.5 * np.dot(y, y), rel=1e-14)

    def test_data_term_vanishes_at_y(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 20)
        cfg = make_cfg(0.7, 0.9, 1.0, 0.2)
        p0, p1 = cfg.penalty0, cfg.penalty1
        expected = 0.7 * np.sum(p0.value(y)) + 0.9 * np.sum(p1.value(np.diff(y)))
        assert objective(y, y, cfg) == pytest.approx(expected, rel=1e-14)

    def test_l1_case_is_explicit_sum(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 25)
        x = rng.normal(0, 1, 25)
        cfg = make_cfg(0.3, 0.8, 0.0, 0.0)
        explicit = (
            0.5 * np.sum((y - x) ** 2)
            + 0.3 * np.sum(np.abs(x))
            + 0.8 * np.sum(np.abs(np.diff(x)))
        )
        assert objective(x, y, cfg) == pytest.approx(explicit, rel=1e-14)

    def test_length_mismatch(self):
        cfg = make_cfg(1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            objective(np.zeros(3), np.zeros(4), cfg)

    def test_single_sample_has_no_difference_term(self):
        cfg = make_cfg(2.0, 5.0, 0.2, 0.05)
        assert objective(np.array([1.0]), np.array([0.0]), cfg) == pytest.approx(
            0.5 + 2.0 * cfg.penalty0.value(1.0), rel=1e-14
        )


class TestSegmentObjective:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.booleans(), st.booleans())
    def test_a_merge_changes_it_as_it_changes_objective(self, seed, kind, zero, fuse):
        """The polish scores a merge round with `_segment_objective` on the
        segments it had before: zeroing a nonzero segment and setting a run
        of segments to one value (0 where a member is 0) must change it by
        what they change the public `objective` of the expanded signals.
        In exact arithmetic the two changes are equal; over 20,000 seeded
        draws they differed by at most 5.6e-16 of F(x) + F(x'), hence 64
        ulps of it."""
        rng = np.random.default_rng(seed)
        g_count = int(rng.integers(2, 30))
        sizes = rng.integers(1, 20, g_count)
        v = rng.normal(0.0, 3.0, g_count) * (rng.random(g_count) < 0.7)
        x = np.repeat(v, sizes)
        y = x + rng.normal(0.0, 1.0, x.size)
        ends = np.cumsum(sizes)
        mean = np.array([float(np.add.reduce(y[end - n:end])) / n if value != 0.0 else 0.0
                         for end, n, value in zip(ends, sizes, v)])
        u = float(rng.uniform(0.0, 1.0))
        lam0, lam1 = (float(w) for w in rng.uniform(0.1, 3.0, 2))
        cfg = make_cfg(lam0, lam1, u / lam0, float(rng.uniform(0.0, 1.0 - u)) / (4.0 * lam1), kind)
        trial, free = v.copy(), v != 0.0
        if zero and free.any():
            trial[rng.choice(np.flatnonzero(free))] = 0.0
        if fuse:
            a = int(rng.integers(0, g_count - 1))
            b = int(rng.integers(a + 2, g_count + 1))
            trial[a:b] = 0.0 if np.any(trial[a:b] == 0.0) else rng.normal(0.0, 3.0)
        xt = np.repeat(trial, sizes)
        cnt = sizes.astype(float)
        change = (cnc._segment_objective(trial, cnt, mean, free, cfg)
                  - cnc._segment_objective(v, cnt, mean, free, cfg))
        f, ft = objective(x, y, cfg), objective(xt, y, cfg)
        assert abs(change - (ft - f)) <= 64 * np.finfo(float).eps * (f + ft)


class TestMidpointConvexity:
    def _g_batch(self, X, a0, a1):
        p0, p1 = PenaltySpec("log", a0), PenaltySpec("log", a1)
        return 0.5 * np.sum(X**2, axis=1) + np.sum(p0.residual(X), axis=1) + p1.residual(
            X[:, 1] - X[:, 0]
        )

    def test_boundary_parameters_convex(self):
        rng = np.random.default_rng(3)
        U = rng.uniform(-3, 3, (2000, 2))
        V = rng.uniform(-3, 3, (2000, 2))
        viol = self._g_batch(0.5 * (U + V), 0.5, 0.125) - 0.5 * (
            self._g_batch(U, 0.5, 0.125) + self._g_batch(V, 0.5, 0.125)
        )
        assert np.max(viol) <= 1e-12

    def test_violating_parameters_nonconvex(self):
        rng = np.random.default_rng(3)
        U = rng.uniform(-3, 3, (10000, 2))
        V = rng.uniform(-3, 3, (10000, 2))
        a1 = 1.0 / 3.0
        viol = self._g_batch(0.5 * (U + V), 0.5, a1) - 0.5 * (
            self._g_batch(U, 0.5, a1) + self._g_batch(V, 0.5, a1)
        )
        assert np.max(viol) > 1e-6


class TestMajorizedInput:
    def test_l1_case_returns_y(self):
        rng = np.random.default_rng(6)
        y = rng.normal(0, 1, 15)
        v = rng.normal(0, 1, 15)
        cfg = make_cfg(0.5, 0.5, 0.0, 0.0)
        np.testing.assert_array_equal(majorized_input(v, y, cfg), y)

    def test_zero_iterate_returns_y(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0, 1, 15)
        cfg = make_cfg(0.5, 0.5, 0.9, 0.1)
        np.testing.assert_allclose(majorized_input(np.zeros_like(y), y, cfg), y, atol=0)

    def test_worked_example(self):
        cfg = CncConfig(1.0, 0.7, PenaltySpec("log", 1.0), PenaltySpec("log", 0.05))
        out = majorized_input(np.array([1.0, 1.0]), np.array([0.0, 0.0]), cfg)
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_matches_hand_expansion(self):
        rng = np.random.default_rng(8)
        y = rng.normal(0, 1, 24)
        v = rng.normal(0, 1, 24)
        cfg = random_convex_cfg(rng)
        dv = np.diff(v)
        s1 = cfg.penalty1.residual_deriv(dv)
        manual = y - cfg.lambda0 * cfg.penalty0.residual_deriv(v)
        manual[0] -= cfg.lambda1 * (-s1[0])
        manual[1:-1] -= cfg.lambda1 * (s1[:-1] - s1[1:])
        manual[-1] -= cfg.lambda1 * s1[-1]
        np.testing.assert_allclose(majorized_input(v, y, cfg), manual, atol=1e-14)


class TestSolve:
    def test_l1_reduction_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            y = random_piecewise(rng, n)
            lam0, lam1 = rng.uniform(0.05, 1.5, 2)
            cfg = make_cfg(lam0, lam1, 0.0, 0.0)
            res = solve(y, cfg)
            direct = fused_lasso_l1(y, lam0, lam1)
            assert np.max(np.abs(res.x - direct)) <= 1e-12
            assert res.iterations == 1
            assert res.converged

    def test_descent_and_history_shape(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            y = random_piecewise(rng, n)
            cfg = random_convex_cfg(rng)
            res = solve(y, cfg)
            h = res.objective_history
            assert h.size == res.iterations + 1
            assert np.all(np.diff(h) <= 1e-12)

    def test_majorizer_dominates_objective_along_iterates(self):
        rng = np.random.default_rng(12)
        y = random_piecewise(rng, 40)
        cfg = random_convex_cfg(rng)
        v = fused_lasso_l1(y, cfg.lambda0, cfg.lambda1)
        for _ in range(3):
            shifted = majorized_input(v, y, cfg)

            def f_maj(x, shifted=shifted, v=v):
                quad = 0.5 * np.sum((shifted - x) ** 2)
                l1 = cfg.lambda0 * np.sum(np.abs(x)) + cfg.lambda1 * np.sum(np.abs(np.diff(x)))
                const = objective(v, y, cfg) - (
                    0.5 * np.sum((shifted - v) ** 2)
                    + cfg.lambda0 * np.sum(np.abs(v))
                    + cfg.lambda1 * np.sum(np.abs(np.diff(v)))
                )
                return quad + l1 + const

            assert f_maj(v) == pytest.approx(objective(v, y, cfg), rel=1e-12)
            for _ in range(200):
                probe = v + rng.uniform(-1.5, 1.5, v.size)
                assert f_maj(probe) >= objective(probe, y, cfg) - 1e-10
            v = fused_lasso_l1(majorized_input(v, y, cfg), cfg.lambda0, cfg.lambda1)

    def test_global_optimality_under_convexity(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            n = int(rng.integers(8, 32))
            y = random_piecewise(rng, n)
            cfg = dataclasses.replace(random_convex_cfg(rng), tol=1e-15, max_iter=500)
            res = solve(y, cfg)
            fstar = objective(res.x, y, cfg)
            for _ in range(300):
                delta = rng.uniform(-0.1, 0.1, n)
                assert fstar <= objective(res.x + delta, y, cfg) + 1e-9

    def test_mdfl_mode(self):
        rng = np.random.default_rng(14)
        y = random_piecewise(rng, 50)
        lam0 = 0.4
        cfg = make_cfg(lam0, 0.8, 1.0 / lam0, 0.0, kind="atan")
        assert abs(convexity_margin(cfg)) <= 1e-12
        res = solve(y, cfg)
        assert res.converged

    def test_convexity_enforced(self):
        y = np.zeros(5) + 1.0
        with pytest.raises(ConvexityError):
            solve(y, make_cfg(1.0, 1.0, 0.5, 1.0 / 3.0))

    def test_nonconvex_override(self):
        rng = np.random.default_rng(15)
        y = random_piecewise(rng, 30)
        cfg = make_cfg(1.0, 1.0, 0.5, 1.0 / 3.0, allow_nonconvex=True)
        res = solve(y, cfg)
        assert np.all(np.diff(res.objective_history) <= 1e-12)

    def test_non_finite_input_rejected(self):
        cfg = make_cfg(1.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            solve(np.array([1.0, np.inf, 0.0]), cfg)

    def test_zero_init(self):
        rng = np.random.default_rng(16)
        y = random_piecewise(rng, 40)
        cfg = dataclasses.replace(random_convex_cfg(rng), tol=1e-13, max_iter=200)
        zero = np.zeros_like(y)
        x_a, *_ = cnc._mm_updates(y, majorized_input(zero, y, cfg), objective(zero, y, cfg), cfg)
        res_b = solve(y, cfg)
        assert np.max(np.abs(x_a - res_b.x)) <= 1e-6

    def test_degenerate_lambda0_is_pure_tv(self):
        rng = np.random.default_rng(17)
        y = random_piecewise(rng, 30)
        cfg = CncConfig(0.0, 0.9, PenaltySpec("log", 0.0), PenaltySpec("log", 0.0))
        from cncflsa import tvd

        np.testing.assert_array_equal(solve(y, cfg).x, tvd(y, 0.9))

    def test_degenerate_lambda1_is_pure_soft(self):
        rng = np.random.default_rng(18)
        y = random_piecewise(rng, 30)
        cfg = CncConfig(0.7, 0.0, PenaltySpec("log", 0.0), PenaltySpec("log", 0.0))
        from cncflsa import soft_threshold

        np.testing.assert_array_equal(solve(y, cfg).x, soft_threshold(y, 0.7))

    def test_single_sample_signal(self):
        # no difference term exists; the solve still runs and descends
        cfg = make_cfg(0.5, 0.8, 1.0, 0.1)
        res = solve(np.array([2.0]), cfg)
        assert res.x.shape == (1,)
        assert np.all(np.diff(res.objective_history) <= 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CncConfig(1.0, 1.0, PenaltySpec(), PenaltySpec(), max_iter=0)
        with pytest.raises(ValueError):
            CncConfig(1.0, 1.0, PenaltySpec(), PenaltySpec(), tol=0.0)
        with pytest.raises(ValueError):
            CncConfig(-1.0, 1.0, PenaltySpec(), PenaltySpec())

    @pytest.mark.parametrize("penalty0, penalty1", [
        ("atan", PenaltySpec()), (PenaltySpec(), ("log", 0.5)), (None, PenaltySpec())])
    def test_a_penalty_that_is_no_penalty_spec_is_rejected(self, penalty0, penalty1):
        with pytest.raises(ValueError, match="PenaltySpec instances"):
            CncConfig(1.0, 1.0, penalty0, penalty1)

    def test_config_is_frozen(self):
        """A field set after construction would skip its check: max_iter = 0
        returned the start from the compiled loop and raised in the Python
        one."""
        cfg = CncConfig(1.0, 1.0)
        assert len(dataclasses.fields(cfg)) == 7
        for field in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field.name, getattr(cfg, field.name))

    def test_max_iter_that_is_no_positive_integer_raises_value_error(self):
        """inf raised OverflowError from int() before; it now gets the
        ValueError, and the message, of every other bad max_iter."""
        for max_iter in (float("inf"), float("-inf"), float("nan"), 0, -3, 2.5, "abc", "5"):
            with pytest.raises(ValueError, match="max_iter must be a positive integer"):
                CncConfig(1.0, 1.0, max_iter=max_iter)

    def test_replace_validates(self):
        cfg = CncConfig(1.0, 1.0)
        for max_iter in (0, 2.5):
            with pytest.raises(ValueError):
                dataclasses.replace(cfg, max_iter=max_iter)
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, tol=float("nan"))
        changed = dataclasses.replace(cfg, lambda0=np.float64(2), max_iter=3.0)
        assert (type(changed.lambda0), changed.lambda0) == (float, 2.0)
        assert (type(changed.max_iter), changed.max_iter) == (int, 3)
