"""Speed sampler: wall times corrected for the machine's momentary speed.

On a few cores of a shared host the same pure-Python work can take 1.5x
longer from one second to the next, because neighbours contend for the
cores and caches.  Medians over a run cannot average that away when a single
op takes seconds.  So, while a pass runs, a real-time timer interrupts the
program every INTERVAL_S and runs a fixed reference kernel: about a
millisecond of `Fraction` arithmetic in dicts, the kind of work matfac does,
and independent of matfac's code.  The kernel's duration measures the
machine's speed at that moment.  (Of the kernels tried, this one tracked
matfac's ops best; with integer-only or memory-walking kernels the corrected
pass times spread two to four times more.)  Importing `fractions` for the kernel happens before
any timed window, so set-up time leaves out that one import.

`seconds(a, b)` turns a wall-clock window into reference seconds: each piece
of the window is scaled by REFERENCE_KERNEL_S / (kernel time near it), and
the time spent in the sampler itself is taken out.  A reference second is a
wall second on a machine that runs the kernel in REFERENCE_KERNEL_S, which
is its median on the 2-vCPU host the benchmark was tuned on; a change to
matfac moves reference seconds exactly as it moves wall seconds at constant
speed.  The sampler runs in the benchmark's one thread: Python runs the
handler between bytecodes of the main thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
REFERENCE_KERNEL_S = 900e-6
# Each sample's speed is the median kernel time over this many neighbours on
# each side, which smooths the kernel's own jitter.  Wider windows (0.2 s
# and more) correlate worse with the program: the speed moves faster.
SMOOTH = 1
WARMUP_CALLS = 30
KERNEL_TERMS = 6

_TERMS = [((i, j), Fraction((i * 7 + j * 3) % 11 - 5 or 1, 1 + (i * 5 + j) % 9))
          for i in range(5) for j in range(5)]


def kernel() -> dict:
    """A fixed product of two sparse polynomials with Fraction coefficients."""
    out = {}
    for (i, j), c in _TERMS:
        for (k, l), d in _TERMS[:KERNEL_TERMS]:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


class SpeedSampler:
    """Context manager that samples the reference kernel while it is active."""

    def __init__(self):
        self.starts: list[float] = []    # handler entry times
        self.spent: list[float] = []     # handler durations
        self.kernel_s: list[float] = []  # kernel durations
        self._factors: list[float] | None = None
        self._old = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t1 - t0)
        self.spent.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(WARMUP_CALLS):
            kernel()
        self._factors = None
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def factors(self) -> list[float]:
        """Per sample: reference seconds per wall second around it."""
        if self._factors is None:
            k, n = self.kernel_s, len(self.kernel_s)
            self._factors = []
            for i in range(n):
                near = k[max(0, i - SMOOTH):i + SMOOTH + 1]
                self._factors.append(REFERENCE_KERNEL_S / statistics.median(near))
        return self._factors

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of program work in the wall window [a, b]."""
        f, s = self.factors(), self.starts
        # Sample i's speed holds from the midpoint with its predecessor to
        # the midpoint with its successor.
        i = max(bisect.bisect_right(s, a) - 1, 0)
        total = 0.0
        while i < len(s):
            lo = a if i == 0 else max(a, (s[i - 1] + s[i]) / 2)
            hi = b if i == len(s) - 1 else min(b, (s[i] + s[i + 1]) / 2)
            if lo >= b:
                break
            if hi > lo:
                total += (hi - lo) * f[i]
            if a <= s[i] < b:
                total -= self.spent[i] * f[i]
            i += 1
        return total

    def wall_seconds(self, a: float, b: float) -> float:
        """Wall seconds of program work in [a, b], sampler time taken out."""
        j, k = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return b - a - sum(self.spent[j:k])
