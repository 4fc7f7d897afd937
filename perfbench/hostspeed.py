"""Host speed, sampled while a pass runs, to scale its timings.

The benchmark runs on a shared virtual machine whose speed drifts by tens
of percent over seconds to minutes, with no steal time to show for it:
process CPU time drifts exactly as wall time does.  Two different
pure-Python loops interleaved every few milliseconds slow down together,
though, so their ratio holds within a few percent while each one alone
swings by a fifth.  The benchmark therefore samples the host's speed with
a fixed reference chunk of pure-Python work, run every ``INTERVAL_S``
from a timer signal while drazinkit works, and scales each stretch of
drazinkit's time between two chunks by ``REFERENCE_S`` over the time of
those chunks.  A scaled time is the time the work would take on this host
at its reference speed; a change to drazinkit changes it as it changes
wall time, since the reference chunk uses no drazinkit code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# The reference chunk's typical time on the 2-vCPU host the benchmark was
# defined on (Python 3.11.7, where it took 2.4 to 4.9 ms as the host's
# speed drifted); it fixes the scale of every scaled time.
REFERENCE_S = 0.0040
# A chunk every 20 ms tracked the drift best among 10, 20 and 40 ms, and
# costs the pass about a sixth more wall time, which is left out of it.
INTERVAL_S = 0.020

_A = [[Fraction(i * 5 + j + 1, j + 2) for j in range(5)] for i in range(5)]
_B = [[(i * 7 + j * 3) % 11 - 5 for j in range(5)] for i in range(5)]


def chunk() -> None:
    """A fixed piece of pure-Python work: Fraction and int matrix products."""
    a = _A
    for _ in range(3):
        a = [[sum(x * y for x, y in zip(row, col)) / 7 for col in zip(*_A)] for row in a]
    b = _B
    for _ in range(40):
        b = [[sum(x * y for x, y in zip(row, col)) % 10007 for col in zip(*_B)] for row in b]


def reference_s(samples: int = 5) -> float:
    """The median time of a few chunks run now."""
    times = []
    for _ in range(samples):
        t = perf_counter()
        chunk()
        times.append(perf_counter() - t)
    return statistics.median(times)


class Sampler:
    """Runs :func:`chunk` every ``INTERVAL_S`` on SIGALRM while active."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._saved = None

    def _sample(self) -> None:
        t = perf_counter()
        chunk()
        self.samples.append((t, perf_counter()))

    def _tick(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        if not self.samples:  # a pass shorter than INTERVAL_S
            self._sample()

    def sampled_s(self, a: float, b: float) -> float:
        """Time within ``[a, b]`` spent in reference chunks."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.samples)

    def scaled(self, a: float, b: float) -> float:
        """Scaled drazinkit time within ``[a, b]``, chunks left out.

        The stretch between two chunks is scaled by the mean time of the
        two; the stretches before the first and after the last by that
        chunk's.  Averaging over more chunks tracked the drift less well.
        """
        samples = self.samples
        times = [e - s for s, e in samples]
        total = 0.0
        # Stretch j runs from the end of chunk j - 1 to the start of chunk
        # j; the first that can overlap [a, b] follows the last chunk
        # started by a.
        j = bisect.bisect_right([s for s, _ in samples], a)
        while True:
            lo = samples[j - 1][1] if j > 0 else float("-inf")
            hi = samples[j][0] if j < len(samples) else float("inf")
            if lo >= b:
                break
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                near = times[max(0, j - 1): j + 1]
                total += overlap * REFERENCE_S / (sum(near) / len(near))
            if j == len(samples):
                break
            j += 1
        return total
