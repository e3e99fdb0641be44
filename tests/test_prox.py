import warnings

import numpy as np
import pytest

from cncflsa import (
    diff,
    diff_adjoint,
    fused_lasso_l1,
    fused_lasso_optimality_residual,
    soft_threshold,
    tvd,
    tvd_optimality_residual,
)

from cncflsa.prox import _all_finite, as_signal

from refsolvers import fl_objective, fused_lasso_reference, tv_objective, tvd_reference

LAMBDAS = (0.01, 0.1, 1.0, 10.0)


def random_piecewise(rng, n, block=5, noise=1.0):
    base = np.repeat(rng.normal(0.0, 2.0, n // block + 1), block)[:n]
    return base + rng.normal(0.0, noise, n)


class TestSoftThreshold:
    def test_above(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_inside_band(self):
        assert soft_threshold(0.5, 1.0) == 0.0

    def test_below(self):
        assert soft_threshold(-3.0, 1.0) == -2.0

    def test_zero_threshold_is_identity(self):
        x = np.array([-2.0, 0.0, 0.1, 5.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_tie_maps_to_zero(self):
        assert soft_threshold(1.0, 1.0) == 0.0
        assert soft_threshold(-1.0, 1.0) == 0.0

    def test_zero_dimensional_input_gives_a_float(self):
        out = soft_threshold(np.array(-3.0), 1.0)
        assert type(out) is float and out == -2.0
        with pytest.raises(ValueError, match="non-finite"):
            soft_threshold(np.array(np.inf), 1.0)

    def test_two_dimensional_input_keeps_its_shape(self):
        x = np.array([[-3.0, 0.5, 2.0], [1.0, -1.5, -0.0]])
        out = soft_threshold(x, 1.0)
        assert out.tobytes() == np.array([[-2.0, 0.0, 1.0], [0.0, -0.5, 0.0]]).tobytes()
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            soft_threshold(x, 1.0)
        # A non-contiguous view, whose flattening copies
        with pytest.raises(ValueError, match="non-finite"):
            soft_threshold(x.T[::2], 1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestAllFinite:
    """The finiteness check of every public function: exact in any shape,
    in any layout through the copies of as_signal and soft_threshold, and
    quiet on finite input whose sum of squares overflows (which an earlier
    check through np.vdot had to allow for)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 128, 129, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_rejects_a_non_finite_entry_at_every_position(self, n, bad, scale):
        """At scale 1e200 the sum of squares of the finite entries alone
        overflows; the check looks at each entry, so that changes nothing."""
        base = np.random.default_rng(n).normal(0.0, scale, n)
        assert _all_finite(base)
        for i in range(n):
            a = base.copy()
            a[i] = bad
            assert not _all_finite(a)
            assert not _all_finite(a.reshape(1, n))
            with pytest.raises(ValueError, match="non-finite"):
                soft_threshold(a[::-1], 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            as_signal(a)

    @pytest.mark.parametrize("values", [[1e200] * 3, [1e308, -1e308], [-1.7e308] + [1.0] * 8,
                                        [5e-324, 1e155, 1e155]])
    def test_accepts_finite_input_whose_sum_of_squares_overflows(self, values):
        a = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(a) and _all_finite(a.reshape(1, -1))
            assert as_signal(values).tobytes() == a.tobytes()
            assert as_signal(a[::-1]).tobytes() == a[::-1].tobytes()
            assert soft_threshold(a, 0.0).tobytes() == a.tobytes()
            assert soft_threshold(a[::-1], 0.0).tobytes() == a[::-1].tobytes()

    def test_empty_and_zero_dimensional(self):
        assert _all_finite(np.empty(0)) and _all_finite(np.empty((0, 3)))
        assert _all_finite(np.array(-0.0)) and _all_finite(np.array(1e308))
        assert not _all_finite(np.array(np.nan))


class TestDiff:
    def test_basic(self):
        np.testing.assert_array_equal(diff([1.0, 3.0, 2.0]), [2.0, -1.0])

    def test_constant(self):
        np.testing.assert_array_equal(diff(np.full(7, 4.2)), np.zeros(6))

    def test_two_samples(self):
        np.testing.assert_array_equal(diff([0.0, 2.0]), [2.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            diff([1.0])

    def test_adjoint_small(self):
        np.testing.assert_array_equal(diff_adjoint([1.0]), [-1.0, 1.0])
        np.testing.assert_array_equal(diff_adjoint([2.0, -1.0]), [-2.0, 3.0, -1.0])

    def test_adjoint_empty_rejected(self):
        with pytest.raises(ValueError):
            diff_adjoint([])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            x = rng.normal(0, 3, n)
            z = rng.normal(0, 3, n - 1)
            lhs = np.dot(diff(x), z)
            rhs = np.dot(x, diff_adjoint(z))
            assert abs(lhs - rhs) <= 1e-12 * n * max(1.0, abs(lhs))


class TestTvd:
    def test_zero_lambda_identity(self):
        y = np.array([1.0, 5.0, -2.0])
        np.testing.assert_array_equal(tvd(y, 0.0), y)

    def test_constant_fixed_point(self):
        y = np.full(9, 3.25)
        for lam in LAMBDAS:
            np.testing.assert_array_equal(tvd(y, lam), y)

    def test_two_sample_closed_form(self):
        # the pair moves together by min(lam, gap/2)
        np.testing.assert_allclose(tvd([0.0, 2.0], 0.5), [0.5, 1.5], atol=1e-14)
        assert tvd_optimality_residual([0.0, 2.0], tvd([0.0, 2.0], 0.5), 0.5) <= 1e-12
        np.testing.assert_allclose(tvd([0.0, 2.0], 5.0), [1.0, 1.0], atol=1e-14)

    def test_huge_lambda_gives_mean(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 33)
        x = tvd(y, 1e4)
        np.testing.assert_allclose(x, np.full_like(y, np.mean(y)), atol=1e-10)
        assert tvd_optimality_residual(y, x, 1e4) <= 1e-8

    def test_single_sample(self):
        np.testing.assert_array_equal(tvd([7.0], 3.0), [7.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            tvd([1.0, 2.0], -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            tvd([1.0, np.nan], 1.0)

    def test_exactness_random(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.integers(1, 65))
            y = random_piecewise(rng, n)
            lam = LAMBDAS[trial % 4]
            x = tvd(y, lam)
            assert tvd_optimality_residual(y, x, lam) <= 1e-8

    def test_mean_preservation(self):
        rng = np.random.default_rng(12)
        for trial in range(50):
            n = int(rng.integers(2, 65))
            y = random_piecewise(rng, n)
            lam = LAMBDAS[trial % 4]
            assert abs(np.sum(tvd(y, lam)) - np.sum(y)) <= 1e-9 * n

    def test_matches_reference_objective(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(1, 17))
            y = random_piecewise(rng, n, block=3)
            lam = LAMBDAS[trial % 4]
            fa = tv_objective(y, tvd(y, lam), lam)
            fb = tv_objective(y, tvd_reference(y, lam), lam)
            assert abs(fa - fb) <= 1e-10 * max(1.0, abs(fb))


class TestTvdResidualOracle:
    def test_flags_unregularized_point(self):
        y = np.array([0.0, 1.0, 3.0])
        assert tvd_optimality_residual(y, y, 1.0) > 0.1

    def test_constant_is_its_own_solution(self):
        c = np.full(6, 2.0)
        assert tvd_optimality_residual(c, c, 3.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tvd_optimality_residual([1.0, 2.0], [1.0], 1.0)

    def test_zero_lambda_certifies_y_alone(self):
        """With lam = 0 the minimizer is y, and the violation is |y - x|."""
        y = np.random.default_rng(17).normal(0.0, 2.0, 300)
        assert tvd_optimality_residual(y, y.copy(), 0.0) <= 1e-12
        x = y.copy()
        x[40] += 0.25
        assert tvd_optimality_residual(y, x, 0.0) == pytest.approx(0.25, abs=1e-12)


class TestFusedLasso:
    def test_both_off_identity(self):
        y = np.array([3.0, -1.0, 0.5])
        np.testing.assert_array_equal(fused_lasso_l1(y, 0.0, 0.0), y)

    def test_tv_off_is_soft_threshold(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 2, 40)
        np.testing.assert_array_equal(fused_lasso_l1(y, 0.7, 0.0), soft_threshold(y, 0.7))

    def test_two_sample_composition(self):
        x = fused_lasso_l1([0.0, 2.0], 0.25, 0.5)
        np.testing.assert_allclose(x, [0.25, 1.25], atol=1e-14)
        assert fused_lasso_optimality_residual([0.0, 2.0], x, 0.25, 0.5) <= 1e-12

    def test_two_step_solves_joint_problem(self):
        # the decomposition must satisfy the joint optimality condition
        rng = np.random.default_rng(14)
        for trial in range(100):
            n = int(rng.integers(1, 65))
            y = random_piecewise(rng, n)
            lam1 = LAMBDAS[trial % 4]
            lam0 = LAMBDAS[(trial // 4) % 4]
            x = fused_lasso_l1(y, lam0, lam1)
            assert fused_lasso_optimality_residual(y, x, lam0, lam1) <= 1e-8

    def test_matches_reference_objective(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            n = int(rng.integers(1, 17))
            y = random_piecewise(rng, n, block=3)
            lam1 = LAMBDAS[trial % 4]
            lam0 = LAMBDAS[(trial // 4) % 4]
            fa = fl_objective(y, fused_lasso_l1(y, lam0, lam1), lam0, lam1)
            fb = fl_objective(y, fused_lasso_reference(y, lam0, lam1), lam0, lam1)
            assert abs(fa - fb) <= 1e-10 * max(1.0, abs(fb))

    def test_oracle_flags_wrong_point(self):
        rng = np.random.default_rng(16)
        y = rng.normal(0, 1, 25)
        assert fused_lasso_optimality_residual(y, y, 0.5, 0.5) > 0.1
        x_wrong = fused_lasso_l1(y, 0.05, 0.05)
        assert fused_lasso_optimality_residual(y, x_wrong, 0.5, 0.5) > 1e-3

    def test_oracle_reads_inf_where_a_gap_overflows(self):
        """The running sum of y - x overflows at the second sample, and from
        the third on the chain's gaps read inf - inf = NaN.  Python's max
        dropped a NaN gap, so the oracle read 0.0, a pass, where
        tvd_optimality_residual reads inf; it reads inf too.  A solve stops
        on this oracle, so a NaN gap must never pass."""
        y, x = [1.7e308, 1.7e308, 0.0], [0.0, 0.0, 0.0]
        assert fused_lasso_optimality_residual(y, x, 1e308, 1e308) == np.inf
        with np.errstate(over="ignore"):
            assert tvd_optimality_residual(y, x, 1e308) == np.inf

    @pytest.mark.parametrize("lam0, lam1, exact", [
        (0.7, 0.0, lambda y: soft_threshold(y, 0.7)),
        (0.0, 1.3, lambda y: tvd(y, 1.3)),
        (0.0, 0.0, np.copy),
    ])
    def test_oracle_certifies_the_exact_solution_when_a_weight_is_zero(self, lam0, lam1, exact):
        y = np.random.default_rng(18).normal(0.0, 2.0, 300)
        assert fused_lasso_optimality_residual(y, exact(y), lam0, lam1) <= 1e-12

    @pytest.mark.parametrize("y, x, lam0, lam1, violation", [
        # lam1 = 0, where the exact x is [2.0, 0.5, -1.0]: a nonzero sample
        # whose g = 0.5 / 1 misses its sign by 0.5, then a zero sample whose
        # |g| = 1.5 exceeds 1 by 0.5.
        ([3.0, 1.5, -2.0], [2.5, 0.5, -1.0], 1.0, 0.0, 0.5),
        ([3.0, 1.5, -2.0], [2.0, 0.0, -1.0], 1.0, 0.0, 0.5),
        # lam0 = 0, where the exact x is [0.5, 1.5]: the residuals sum to
        # 0.25, which is 0.5 in units of lam1.
        ([0.0, 2.0], [0.5, 1.75], 0.0, 0.5, 0.5),
        # Both zero, where the exact x is y: one sample off by 0.25.
        ([3.0, 1.5, -2.0], [3.0, 1.25, -2.0], 0.0, 0.0, 0.25),
    ])
    def test_oracle_measures_a_perturbed_sample_when_a_weight_is_zero(self, y, x, lam0, lam1,
                                                                       violation):
        residual = fused_lasso_optimality_residual(y, x, lam0, lam1)
        assert residual == pytest.approx(violation, abs=1e-12)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            fused_lasso_l1([1.0, 2.0], -0.1, 0.5)
        with pytest.raises(ValueError):
            fused_lasso_l1([1.0, 2.0], 0.1, -0.5)


@pytest.mark.parametrize("y", [np.array([-0.0]), np.array([2.5]), np.array([1.0, -0.0, 3.0])])
def test_results_never_alias_the_input(y):
    """At N = 1 and at lambda = 0 the kernels copy their input through; the
    result must still be a new array, because `as_signal` hands back the
    caller's own float64 array."""
    before = y.tobytes()
    for out in (tvd(y, 0.0), tvd(y, 1.0), soft_threshold(y, 0.0),
                fused_lasso_l1(y, 0.0, 0.0), fused_lasso_l1(y, 0.0, 1.0)):
        assert not np.shares_memory(out, y)
        out[:] = 7.0
        assert y.tobytes() == before
