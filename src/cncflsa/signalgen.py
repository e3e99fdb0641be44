"""Synthetic pulse-train fixtures, reproducible Gaussian noise, and metrics.

The noise generator is pinned to a fixed bit-level contract so fixtures can
be regenerated identically anywhere: a SplitMix64 stream seeded by the user
produces 64-bit words, uniforms are (word >> 11) * 2**-53, and Gaussians come
from the Box-Muller transform consuming two uniforms per pair (pairs emitted
in order, u1 = 0 rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .prox import _all_finite, _as_pair, _check_nonneg, _check_pos, _total, _whole, as_signal

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Desk-scale default test signal: five pulses mixing narrow/wide widths and
#: positive/negative amplitudes on a zero baseline of 300 samples.
DEFAULT_LENGTH = 300
DEFAULT_PULSES = (
    (30, 15, 2.0),
    (90, 8, -1.5),
    (140, 30, 1.0),
    (210, 5, 3.0),
    (250, 20, -2.0),
)

#: Default beta of :func:`lambda1_heuristic` and :func:`lambda0_grid`, and
#: of the CLI's --beta.
DEFAULT_BETA = 0.25


@dataclass(frozen=True)
class PulseSpec:
    """Sparse pulse-train description: signal length plus
    (start, width, amplitude) triples written onto a zero baseline."""

    length: int
    pulses: tuple = ()

    def __post_init__(self):
        length = _whole(self.length)
        if length is None or length < 1:
            raise ValueError(f"length must be a positive integer, got {self.length!r}")
        object.__setattr__(self, "length", length)
        norm = []
        for p in self.pulses:
            start, width, amp = p
            start, width, amp = _whole(start), _whole(width), float(amp)
            if start is None or width is None:
                raise ValueError(f"pulse start/width must be integers, got {p!r}")
            if width < 1:
                raise ValueError(f"pulse width must be >= 1, got {p!r}")
            if start < 0 or start + width > self.length:
                raise ValueError(f"pulse {p!r} falls outside the signal of length {self.length}")
            if not np.isfinite(amp):
                raise ValueError(f"pulse amplitude must be finite, got {p!r}")
            norm.append((start, width, amp))
        norm.sort(key=lambda t: t[0])
        for prev, cur in zip(norm, norm[1:]):
            if cur[0] < prev[0] + prev[1]:
                raise ValueError(f"pulses {prev!r} and {cur!r} overlap")
        object.__setattr__(self, "pulses", tuple(norm))


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise description: standard deviation and the
    64-bit seed of the deterministic generator."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_nonneg(self.sigma, "sigma"))
        object.__setattr__(self, "seed", _seed(self.seed))


def _seed(value):
    """value as a seed of the generator: a whole number in [0, 2**64)."""
    seed = _whole(value)
    if seed is None or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {value!r}")
    return seed


def default_pulse_spec() -> PulseSpec:
    """The default desk-scale fixture used throughout the test harness."""
    return PulseSpec(DEFAULT_LENGTH, DEFAULT_PULSES)


def generate_pulses(spec: PulseSpec):
    """Render a PulseSpec: zero baseline with each pulse's amplitude written
    over [start, start + width)."""
    x = np.zeros(spec.length)
    for start, width, amp in spec.pulses:
        x[start : start + width] = amp
    return x


def _splitmix64(seed, count):
    """First `count` words of the SplitMix64 stream for `seed` (uint64 wraps mod 2**64)."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, count):
    """First `count` uniforms (word >> 11) * 2**-53 of the stream for `seed`."""
    return (_splitmix64(seed, count) >> np.uint64(11)) * 2.0**-53


def standard_normal(n, seed):
    """n standard-normal draws from the pinned SplitMix64 + Box-Muller chain."""
    count = _whole(n)
    if count is None or count < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    seed = _seed(seed)
    npairs = (count + 1) // 2
    u = _uniforms(seed, 2 * npairs)
    # A zero u1 (probability 2**-53 per pair) is skipped: the words after it
    # are re-paired and the next word of the stream is appended.
    skipped = 0
    while np.any(u[0::2] == 0.0):
        skipped += 1
        j = 2 * np.flatnonzero(u[0::2] == 0.0)[0]
        u = np.append(np.delete(u, j), _uniforms(seed, 2 * npairs + skipped)[-1])
    u1 = u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * npairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def add_awgn(x, noise: NoiseSpec):
    """x plus deterministic white Gaussian noise; sigma = 0 returns x exactly.

    Raises ValueError when a noisy sample is not finite, which a sigma
    near the largest float makes happen."""
    x = as_signal(x, "x")
    if noise.sigma == 0.0:
        return x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out = x + noise.sigma * standard_normal(x.size, noise.seed)
    if not _all_finite(out):
        raise ValueError(f"x + sigma*noise is not finite for sigma = {noise.sigma!r}")
    return out


def lambda1_heuristic(n, sigma, beta=DEFAULT_BETA):
    """Difference-penalty weight beta * sqrt(n) * sigma, rejected where
    that product is not finite."""
    count = _whole(n)
    if count is None or count < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    sigma = _check_nonneg(sigma, "sigma")
    beta = _check_pos(beta, "beta")
    with np.errstate(over="ignore"):
        lam1 = beta * np.sqrt(count) * sigma
    if not np.isfinite(lam1):
        raise ValueError(f"beta*sqrt(n)*sigma must be finite, got beta = {beta!r}, n = {count}, "
                         f"sigma = {sigma!r}")
    return lam1


def lambda0_grid(n, sigma, beta=DEFAULT_BETA):
    """Candidate lambda0 values {0.05, 0.10, ..., 1.0} * beta*sqrt(n)*sigma
    used to tune lambda0 for lowest RMSE."""
    scale = lambda1_heuristic(n, sigma, beta)
    return np.arange(1, 21) * 0.05 * scale


def rmse(x, reference):
    """Root mean squared error between two equal-length signals.

    Where the sum of squares overflows, or a difference does, it is formed
    from the halved differences scaled by their largest magnitude, so the
    result is finite whenever the RMSE is, and no overflow warns; every
    other result is the plain formula's.

    Both sums of squares are numpy's pairwise ``add``, as F's are, not BLAS
    ``ddot``, whose order of addition follows the BLAS build, the kernel it
    picks for the CPU and its thread count.  The first is ``prox._total``
    of the pair, the compiled module's ``total`` when it is loaded, which
    forms the squares in its own scratch and raises no overflow warning;
    the scaled form cannot overflow: each halved difference is at most the
    largest float, and its scaled square at most 1."""
    x, reference = _as_pair(x, reference, "x", "reference")
    total = _total(x, reference)
    if math.isfinite(total):
        return math.sqrt(total / x.size)
    half = 0.5 * x - 0.5 * reference
    scale = float(np.max(np.abs(half)))
    half /= scale
    half *= half
    return 2.0 * (scale * math.sqrt(float(np.add.reduce(half)) / x.size))
