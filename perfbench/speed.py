"""Machine speed, measured with a fixed pure-Fraction probe.

The machine this runs on is shared: identical work takes 0.6x to 1.4x as
long from one few-second phase to the next.  A fixed probe, independent of
convval, is timed next to the ops, and op times are scaled by PROBE_REF_S
over the probe time around them.  Times are thus reported at the reference
speed, where the probe takes PROBE_REF_S (its median on the 2-core machine
the benchmark was defined on).
"""

import statistics
import time
from fractions import Fraction

PROBE_REF_S = 0.0012
# Between ops, the probe runs once every PROBE_EVERY_S of op time.
PROBE_EVERY_S = 0.05


def _probe_work():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


def probe():
    """Wall time of the probe, the median of three runs (between ops)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def thread_probe():
    """CPU time of one run of the probe on the calling thread.

    Used inside a suite call, next to each case, where other pool threads
    compete for the GIL: thread CPU time leaves that waiting out.
    """
    c0 = time.thread_time()
    _probe_work()
    return time.thread_time() - c0
