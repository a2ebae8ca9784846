"""A fixed reference workload that measures the host's speed of the moment.

The benchmark runs on a shared host whose processors change speed by tens
of percent from one second to the next and from one half-minute to the
next, as other tenants come and go.  The worker therefore measures, next to
every operation, how long this fixed reference work takes: in a short batch
before and after the operation, and every ``SAMPLE_EVERY_S`` while the
operation runs, from a timer signal (``Sampler``).  The time the reference
took inside the operation is taken off the operation's time, and the
operation's time is divided by the reference's slowdown around it
(``speed_factor``).  The reference is the benchmark's own code, a mix of the
kinds of work the program does (a Python integer loop, big integers,
``Fraction`` arithmetic and small numpy int64 array operations), so a change
to the program does not change it.
"""

import signal
import time
from fractions import Fraction

import numpy as np

# Median time of one iteration of ``reference_once`` on the host the
# benchmark was tuned on (a shared 2-vCPU Intel Xeon VM, Python 3.11).  It
# only scales the adjusted times back to seconds; comparisons between
# commits on one host do not depend on it.
REFERENCE_S = 0.0008
# A batch before or after an operation lasts at least this long.
BATCH_S = 0.005
# Period of the in-operation samples.  Each takes about REFERENCE_S, so they
# add about 2 % to an operation's wall time, all of which is taken off again.
# Signal handlers run between bytecodes, so inside a long numpy call the
# sample waits until the call returns.
SAMPLE_EVERY_S = 0.05

_ARRAY = np.arange(1024, dtype=np.int64)


def reference_once():
    s = 0
    for i in range(4000):
        s += (i * i) % 7
    x = 3**120
    for i in range(400):
        x = (x * 12345 + i) % (1 << 300)
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    a = _ARRAY
    for _ in range(20):
        a = (a * 3 + 1) % 1000003
    return s, x, f, int(a[5])


def batch() -> tuple[float, int]:
    """Run the reference for at least BATCH_S; (seconds, iterations)."""
    count = 0
    start = time.perf_counter()
    while True:
        reference_once()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_S:
            return elapsed, count


class Sampler:
    """Runs the reference every SAMPLE_EVERY_S while armed (``with sampler:``).

    ``seconds`` and ``count`` total the samples of the last armed period.
    """

    def __init__(self):
        self.seconds, self.count = 0.0, 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_once()
        self.seconds += time.perf_counter() - t0
        self.count += 1

    def __enter__(self):
        self.seconds, self.count = 0.0, 0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return False


def speed_factor(*samples: tuple[float, int]) -> float:
    """The host's slowdown over (seconds, iterations) samples: mean iteration over REFERENCE_S."""
    return sum(s[0] for s in samples) / sum(s[1] for s in samples) / REFERENCE_S
