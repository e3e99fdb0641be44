"""Machine-speed gauge that calibrates every time the benchmark reports.

On the 2-core VM this benchmark was tuned on, speed drifted by up to 25%
over tens of seconds, with CPU time equal to wall time and no hardware
counters exposed.  Even the median op time over a whole 24 s run then moves
by 10-20% from run to run.  The gauge times a fixed reference of the same
kind of work as the workload's ops between ops, never inside one.  A
duration measured around time t is reported as
``duration * nominal_ms / g(t)``, where g(t) is the median of the nine
readings nearest t: milliseconds at the speed where the reference takes
``nominal_ms``.  The references import nothing from the library, so a
change to the library cannot move them.

Over ten runs per workload on that VM the spread (IQR / median) of the
time metrics fell from 6-29% raw to 3-10.5% calibrated; perfbench/README.md
has the table.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time

NEAREST = 9     # readings whose median calibrates a duration; one reading varies by ±20%


def frozen_tvd(ys, lam):
    """Exact 1-D total variation denoising: a frozen copy of the library's
    pure-Python dynamic program, kept here as a yardstick only."""
    n = len(ys)
    cap = 2 * n
    pos, d_a, d_b = [0.0] * cap, [0.0] * cap, [0.0] * cap
    head, tail = n, n - 1
    lo_clamp, hi_clamp = [0.0] * (n - 1), [0.0] * (n - 1)
    a_left, b_left = a_right, b_right = 1.0, -ys[0]
    for i in range(n - 1):
        a, b, k = a_left, b_left, head
        while k <= tail and a * pos[k] + b < -lam:
            a, b, k = a + d_a[k], b + d_b[k], k + 1
        lo = (-lam - b) / a
        head = k - 1
        pos[head], d_a[head], d_b[head] = lo, a, b + lam
        a, b, k = a_right, b_right, tail
        while k > head and a * pos[k] + b > lam:
            a, b, k = a - d_a[k], b - d_b[k], k - 1
        hi = (lam - b) / a
        tail = k + 1
        pos[tail], d_a[tail], d_b[tail] = hi, -a, lam - b
        lo_clamp[i], hi_clamp[i] = lo, hi
        a_left, b_left = 1.0, -ys[i + 1] - lam
        a_right, b_right = 1.0, -ys[i + 1] + lam
    a, b, k = a_left, b_left, head
    while k <= tail and a * pos[k] + b < 0.0:
        a, b, k = a + d_a[k], b + d_b[k], k + 1
    x = [0.0] * n
    x[-1] = -b / a
    for i in range(n - 2, -1, -1):
        x[i] = min(max(x[i + 1], lo_clamp[i]), hi_clamp[i])
    return x


_rng = random.Random(0)
_SIGNALS = [[_rng.choice((0.0, 0.0, 2.0, -1.5)) + _rng.gauss(0.0, 0.5) for _ in range(300)]
            for _ in range(30)]


def in_process():
    """10-15 ms of interpreter-bound work like the in-process ops."""
    for ys in _SIGNALS:
        frozen_tvd(ys, 2.0)


def fresh_interpreter():
    """About 160 ms: a fresh interpreter importing numpy, start-up work of
    the same kind as a cli_cold op."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class Gauge:
    def __init__(self, reference, nominal_ms, every_s):
        self.reference, self.nominal_ms, self.every_s = reference, nominal_ms, every_s
        self.at, self.ms, self.gaps = [], [], []

    def read(self):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.ms.append((t1 - t0) * 1e3)
        self.gaps.append((t0, t1))

    def maybe(self):
        """Read the gauge if ``every_s`` has passed since the last reading."""
        if time.perf_counter() - self.at[-1] >= self.every_s:
            self.read()

    def factor(self, t):
        i = bisect.bisect(self.at, t)
        lo, hi = max(0, i - NEAREST), min(len(self.at), i + NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self.at[j] - t))[:NEAREST]
        return self.nominal_ms / statistics.median(self.ms[j] for j in near)

    def scaled_s(self, t0, t1):
        """Calibrated length of [t0, t1], less the gauge's own readings and
        any other pause recorded in ``gaps``."""
        total, cur = 0.0, t0
        for g0, g1 in self.gaps + [(t1, t1)]:
            if g1 <= cur or g0 > t1:
                continue
            end = min(g0, t1)
            if end > cur:
                total += (end - cur) * self.factor((cur + end) / 2)
            cur = max(cur, g1)
        return total
