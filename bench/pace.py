"""Host pace: measured intervals rescaled to the host's full speed.

The machines this benchmark runs on share their cores with other
tenants, and a single-threaded Python process there runs up to 1.8
times as slow for stretches of ten seconds and more. The slowdown hits every
instruction alike, and from inside the guest it shows neither as steal
time nor as lost CPU time. So a run also times a fixed reference
computation ten times a second, from a timer signal, and divides each
measured interval by how slow the reference ran around it:

    paced = raw * mean(NOMINAL / reference time) over the samples around it

The mean of the speeds, not of the times, is what rescales an interval
that spans a slow and a fast stretch correctly.

NOMINAL is the reference's time on the reference machine (2 CPUs,
Python 3.11) at full speed, so paced seconds read as seconds there. The
reference runs outside the intervals it rescales: its own time is taken
out of them.
"""

import signal
import statistics
import time
from fractions import Fraction

NOMINAL = 0.0008
PERIOD = 0.1
NEARBY = 4

_MATRIX = [[(i * 7 + j * 13) % 17 - 8 for j in range(4)] for i in range(4)]


def reference():
    """Exact arithmetic of the same kind as the package's: Fractions and
    fraction-free integer elimination."""
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    for _ in range(60):
        m = [list(r) for r in _MATRIX]
        prev = 1
        for k in range(3):
            for i in range(k + 1, 4):
                for j in range(k + 1, 4):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
    return s


class Pace:
    """Samples the reference from SIGALRM while started."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return time.perf_counter(), len(self.samples), self.spent

    def since(self, mark):
        """(raw seconds, paced seconds) since the mark, reference time excluded."""
        start, n, spent = mark
        raw = time.perf_counter() - start - (self.spent - spent)
        nearby = self.samples[max(0, n - NEARBY):]
        return raw, raw * statistics.fmean(NOMINAL / t for t in nearby)
