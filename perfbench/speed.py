"""Machine-speed probe: rescales pass times to a fixed reference speed.

On a shared host the speed of identical single-threaded work drifts by
+/-30% over seconds to minutes, with CPU time tracking wall time (the
process is slowed, not descheduled).  A `SpeedProbe` samples that speed
while a pass runs: a real-time interval timer raises SIGALRM every
INTERVAL_S, and the handler times one fixed piece of reference work, a
Python loop plus a few small numpy calls like the package's own.  It runs
that work WARMUP_CALLS times untimed first: on a first call straight after
the pass's code the caches are cold and it takes about twice as long, which
would make the sample depend on the pass's memory use.  The handler runs in the main thread between bytecodes, so it measures the
speed the pass sees at that moment and touches none of the pass's data.

`normalise` rescales a pass's own time (its wall time less the handler's
time) by the mean of NOMINAL_S / probe time, i.e. to the seconds the pass
would take at the speed where the reference work takes NOMINAL_S.  This
assumes one busy thread: work moved to other threads or processes would
slow the probe and read as a slower machine, so such a program must also
be judged by the raw ``wall_s``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
WARMUP_CALLS = 2
# about the median duration of a warm reference_work() call in the handler
# on the 2-core machine of baseline.json; only ratios between runs on one
# machine matter
NOMINAL_S = 50e-6

_VEC = np.linspace(0.0, 1.0, 16)
_MAT = 2.0 * np.eye(6) + 0.1


def reference_work():
    """Fixed work whose duration tracks the machine's current speed."""
    total = 0
    for j in range(300):
        total += j * j
    v = _VEC
    for _ in range(8):
        v = v * 0.5 + 0.25
    return total + float(v @ _VEC) + float(np.linalg.eigvalsh(_MAT)[0])


class SpeedProbe:
    """Samples the machine's speed during a block; see the module docstring."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []  # duration of each reference_work() call
        self.total_s = 0.0  # time spent in the handler, to take off the pass

    def _sample(self):
        for _ in range(WARMUP_CALLS):
            reference_work()
        t0 = perf_counter()
        reference_work()
        self.samples.append(perf_counter() - t0)

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self._sample()
        self.total_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one interval
            self._sample()
        return False

    def speed(self):
        """Mean speed during the block relative to the reference speed."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples)

    def normalise(self, work_s):
        """Time of the block's own work (its wall time less total_s) at the
        reference speed."""
        return work_s * self.speed()
