"""Wall time referred to a fixed machine speed, for a shared host.

On a shared machine the same pass over a workload can take a fifth more or
less time from one minute to the next, whatever the code does.  A pass
therefore samples the machine's speed with a fixed calibration loop
(see calibrate): once before the first command, then every
CAL_EVERY_S seconds from a SIGALRM handler, which Python runs between two
bytecodes of whatever the engine is doing, and once after the last command.
Each stretch of engine time between two samples is scaled by REF_CAL_S over
the mean of the two samples: ``wall_ref_s`` is the pass's wall time at the
speed at which the loop takes REF_CAL_S.  The calibration loop itself counts
in neither time.
"""

import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

# Median time of calibrate() on the 2-core VM where the benchmark was
# defined.  It only sets the unit: comparisons between commits do not
# depend on it.
REF_CAL_S = 0.07
CAL_EVERY_S = 0.5


def calibrate():
    """Seconds taken by a fixed mix of the three kinds of work the engine
    does: Fraction and dict work in the interpreter, many numpy calls on small
    arrays (truncated products), and row updates on an int64 matrix (row
    reduction).  The arrays are small, so the loop leaves no mark on peak RSS
    beyond about 2 MB."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 6500):
        acc += Fraction(i % 97, i % 89 + 1)
        table[(i % 1000, i % 7)] = i
    small = np.arange(576, dtype=np.int64).reshape(24, 24)
    out = np.zeros_like(small)
    for k in range(4500):
        i = k % 24
        out[i:, i:] += 7 * small[: 24 - i, : 24 - i]
    big = np.arange(80000, dtype=np.int64).reshape(200, 400)
    rows = np.arange(1, 200, 2)
    for r in range(80):
        big[rows] -= np.outer(big[rows, r] % 4733, big[r] % 4733)
        big %= 4733
    return perf_counter() - t0


class PassClock:
    """Context manager timing the engine work of one pass, split into
    stretches at the calibration samples."""

    def __enter__(self):
        self.samples = [calibrate()]
        self.stretches = [0.0]    # engine seconds after each sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S)

    def _sample(self):
        self.stretches[-1] += perf_counter() - self._t
        self.samples.append(calibrate())
        self.stretches.append(0.0)
        self._t = perf_counter()

    def times(self):
        """(wall_s, wall_ref_s) of the pass."""
        wall = sum(self.stretches)
        ref = sum(s * 2 * REF_CAL_S / (a + b) for s, a, b in
                  zip(self.stretches, self.samples, self.samples[1:]))
        return wall, ref
