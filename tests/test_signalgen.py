import warnings

import numpy as np
import pytest

from cncflsa import (
    DEFAULT_LENGTH,
    NoiseSpec,
    PulseSpec,
    add_awgn,
    default_pulse_spec,
    generate_pulses,
    lambda0_grid,
    lambda1_heuristic,
    rmse,
    standard_normal,
)
from cncflsa import signalgen


class TestPulses:
    def test_empty(self):
        np.testing.assert_array_equal(generate_pulses(PulseSpec(5)), np.zeros(5))

    def test_single(self):
        out = generate_pulses(PulseSpec(6, ((1, 2, 3.0),)))
        np.testing.assert_array_equal(out, [0.0, 3.0, 3.0, 0.0, 0.0, 0.0])

    def test_adjacent(self):
        out = generate_pulses(PulseSpec(4, ((0, 2, 1.0), (2, 2, -1.0))))
        np.testing.assert_array_equal(out, [1.0, 1.0, -1.0, -1.0])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(10, ((0, 3, 1.0), (2, 2, 2.0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(10, ((8, 3, 1.0),))
        with pytest.raises(ValueError):
            PulseSpec(10, ((-1, 3, 1.0),))

    @pytest.mark.parametrize("amp", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            PulseSpec(6, ((1, 2, amp),))

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(10, ((2, 0, 1.0),))

    def test_default_fixture(self):
        spec = default_pulse_spec()
        x = generate_pulses(spec)
        assert x.size == DEFAULT_LENGTH == 300
        assert x[30] == 2.0 and x[44] == 2.0 and x[45] == 0.0
        assert x[210] == 3.0 and x[214] == 3.0
        assert x[269] == -2.0 and x[270] == 0.0

    def test_piecewise_constant_sparsity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            starts = np.sort(rng.choice(n - 4, size=3, replace=False))
            pulses = []
            prev_end = 0
            for s in starts:
                s = max(int(s), prev_end)
                w = int(rng.integers(1, 4))
                if s + w > n:
                    continue
                pulses.append((s, w, float(rng.normal(0, 2))))
                prev_end = s + w
            x = generate_pulses(PulseSpec(n, tuple(pulses)))
            assert np.count_nonzero(np.diff(x)) <= 2 * len(pulses)


class TestNoise:
    def test_sigma_zero_exact(self):
        x = np.array([1.0, -2.0, 0.25])
        out = add_awgn(x, NoiseSpec(0.0, 99))
        np.testing.assert_array_equal(out, x)

    def test_deterministic(self):
        x = np.zeros(500)
        a = add_awgn(x, NoiseSpec(0.7, 12345))
        b = add_awgn(x, NoiseSpec(0.7, 12345))
        np.testing.assert_array_equal(a, b)

    def test_non_finite_noisy_samples_are_rejected_quietly(self):
        x = generate_pulses(default_pulse_spec())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                add_awgn(x, NoiseSpec(1e308, 1))
            assert np.all(np.isfinite(add_awgn(x, NoiseSpec(1e300, 1))))

    def test_seed_changes_stream(self):
        x = np.zeros(100)
        a = add_awgn(x, NoiseSpec(1.0, 1))
        b = add_awgn(x, NoiseSpec(1.0, 2))
        assert not np.array_equal(a, b)

    def test_prefix_consistency(self):
        # the first n draws do not depend on how many are requested
        a = standard_normal(101, 77)
        b = standard_normal(400, 77)
        np.testing.assert_array_equal(a, b[:101])

    def test_large_sample_statistics(self):
        w = standard_normal(10**6, 42)
        assert abs(np.mean(w)) <= 0.005
        assert 0.995 <= np.std(w) <= 1.005
        rho1 = np.corrcoef(w[:-1], w[1:])[0, 1]
        assert abs(rho1) <= 0.01

    # A zero word in a u1 position (even index) is skipped and the stream
    # re-paired.  The skip needs one word beyond the 2*ceil(n/2) drawn first,
    # so every case also grows the stream.
    @pytest.mark.parametrize("n, zero_at", [(1, 0), (6, 0), (6, 4), (7, 6)])
    def test_zero_u1_word_is_skipped(self, monkeypatch, n, zero_at):
        real = signalgen._splitmix64

        def with_zero(seed, count):
            words = real(seed, count)
            if zero_at < count:
                words[zero_at] = 0
            return words

        def without_word(seed, count):
            return np.delete(real(seed, count + 1), zero_at)

        monkeypatch.setattr(signalgen, "_splitmix64", with_zero)
        out = standard_normal(n, 5)
        monkeypatch.setattr(signalgen, "_splitmix64", without_word)
        assert out.tobytes() == standard_normal(n, 5).tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0)
        with pytest.raises(ValueError):
            NoiseSpec(1.0, -3)
        with pytest.raises(ValueError):
            NoiseSpec(1.0, 2**64)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 2.5])
def test_an_integer_argument_that_is_no_whole_number_raises_value_error(bad):
    """inf raised OverflowError from int() before, and a fraction was
    truncated where a count was asked for."""
    calls = [lambda: PulseSpec(bad), lambda: PulseSpec(10, ((bad, 2, 1.0),)),
             lambda: PulseSpec(10, ((0, bad, 1.0),)), lambda: NoiseSpec(0.1, bad),
             lambda: lambda1_heuristic(bad, 1.0), lambda: standard_normal(bad, 1)]
    for call in calls:
        with pytest.raises(ValueError, match="integer"):
            call()


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_standard_normal_takes_the_seed_rule_of_noise_spec(seed):
    """standard_normal raised OverflowError for -1 and 2**64, and drew seed
    1's numbers for 1.5."""
    for call in (lambda: NoiseSpec(0.1, seed), lambda: standard_normal(3, seed)):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            call()
    assert standard_normal(3, 7.0).tobytes() == standard_normal(3, 7).tobytes()


class TestMetrics:
    def test_lambda1_heuristic(self):
        assert lambda1_heuristic(100, 0.5, 0.25) == pytest.approx(1.25, abs=1e-15)
        assert lambda1_heuristic(123, 0.0) == 0.0
        assert lambda1_heuristic(256, 0.4, 0.25) == pytest.approx(1.6, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.0, -0.25, float("inf"), float("nan")])
    def test_lambda1_heuristic_rejects_a_beta_that_is_not_positive(self, beta):
        with pytest.raises(ValueError, match="beta"):
            lambda1_heuristic(100, 0.5, beta)
        with pytest.raises(ValueError, match="beta"):
            lambda0_grid(100, 0.5, beta)

    @pytest.mark.parametrize("beta, sigma", [(1e300, 1e300), (1.5e308, 1.0)])
    def test_lambda1_heuristic_rejects_a_product_past_the_largest_float(self, beta, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"beta\*sqrt\(n\)\*sigma"):
                lambda1_heuristic(100, sigma, beta)

    def test_lambda0_grid(self):
        grid = lambda0_grid(100, 0.5)
        assert grid.size == 20
        assert grid[0] == pytest.approx(0.05 * 1.25, abs=1e-15)
        assert grid[-1] == pytest.approx(1.25, abs=1e-12)

    def test_rmse_zero_on_identical(self):
        x = np.array([0.5, -1.0, 2.0])
        assert rmse(x, x) == 0.0

    def test_rmse_value(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.sqrt(12.5), abs=1e-14)

    def test_rmse_symmetric(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 1, 40)
        b = rng.normal(0, 1, 40)
        assert rmse(a, b) == rmse(b, a)

    def test_rmse_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1.0, 2.0], [1.0])

    def test_rmse_stays_finite_past_overflow_quietly(self):
        """Where the sum of squares overflows, or x - reference itself does,
        the RMSE is still formed, with no warning; it is inf only where the
        RMSE itself passes the largest float."""
        big = np.full(4, 1.5e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rmse([1e200, 1e200], [-1e200, -1e200]) == 2e200
            assert rmse([3e160, 0.0], [-1e160, 0.0]) == pytest.approx(4e160 / np.sqrt(2.0),
                                                                      rel=1e-15)
            assert rmse(big, -big) == pytest.approx(3e154, rel=1e-15)
            assert rmse([1e308, 0.0, 0.0, 0.0], [-1e308, 0.0, 0.0, 0.0]) == 1e308
            assert rmse([1e308, 1e308], [-1e308, -1e308]) == np.inf

    def test_rmse_keeps_the_plain_formulas_bytes(self):
        """Every finite sum of squares gives the bytes of
        sqrt(add.reduce(d * d) / n), numpy's pairwise sum, not BLAS."""
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 300, 1001):
            for scale in (1e-160, 1.0, 1e150):
                a, b = rng.normal(0, scale, n), rng.normal(0, scale, n)
                d = a - b
                assert rmse(a, b) == float(np.sqrt(np.add.reduce(d * d) / n))
