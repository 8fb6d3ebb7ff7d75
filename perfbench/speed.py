"""Machine-speed probe for timing on a shared, noisy machine.

On a shared 2-core Intel Xeon VM (CPython 3.11), the speed of the
CPU seen by one process swings by up to 2x from one second to the
next: a fixed pure-Python kernel takes anywhere from 0.4 ms to 0.9 ms,
and ``process_time`` follows wall time, so the slowdowns are not
waiting but a slower CPU.  Raw pass times of one workload spread by 25%
between runs of the same inputs.

The probe times a small fixed kernel, which uses no code of the
package, at every job boundary and every ``INTERVAL_S`` seconds from a
``SIGALRM`` timer while jobs run.  The inverse of a kernel time is the
machine's speed at that moment, and a job's time is rescaled to a
fixed reference speed:

    seconds = (wall - probe time inside the job)
              * REFERENCE_KERNEL_S * mean(1 / kernel time during the job)

i.e. the time the job would take on a machine where the kernel takes
``REFERENCE_KERNEL_S``, about the best that VM reaches.  Both the
job and the kernel slow down together, so the ratio holds still: the
per-job spread within a run drops from about 40% to about 4%.  A
change to the package moves the job time and not the kernel, so its
speed-ups and slow-downs show in full.
"""

import bisect
import signal
import statistics
import time

#: kernel time that defines a reference second (about the best seen on
#: a shared 2-core Intel Xeon VM under CPython 3.11)
REFERENCE_KERNEL_S = 0.0004

#: seconds between timer samples while a job runs
INTERVAL_S = 0.05

_P = 2147483629
_N = 16
_A = [[(i * 7919 + j * 104729) % _P for j in range(_N)] for i in range(_N)]
_BT = [[(i * 15485863 + j * 32452843) % _P for i in range(_N)]
       for j in range(_N)]


def _kernel():
    """A 16x16 matrix product mod p in plain Python ints (~0.5 ms)."""
    t0 = time.perf_counter()
    [[sum(x * y for x, y in zip(row, col)) % _P for col in _BT] for row in _A]
    return time.perf_counter() - t0


class SpeedProbe:
    """Kernel timings taken while a run is in progress."""

    def __init__(self):
        self.times = []      # when each sample was taken
        self.kernel = []     # its kernel time (best of two)
        self.own = 0.0       # seconds spent inside the probe so far
        self._busy = False

    def sample(self, *_):
        if self._busy:       # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = time.perf_counter()
        k = min(_kernel(), _kernel())
        self.times.append(t0)
        self.kernel.append(k)
        self.own += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn):
        """Call fn() between two samples; returns (result, interval)
        where interval = (start, end, probe seconds inside)."""
        self.sample()
        own0 = self.own
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            own = self.own - own0
            self.sample()
        return result, (t0, t1, own)

    def seconds(self, interval):
        """Wall seconds of `interval`, less the probe's own time, at the
        reference speed.  The speed during the interval is the mean
        over the samples inside it and the nearest one on each side."""
        t0, t1, own = interval
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        speed = statistics.fmean(1 / k for k in self.kernel[lo:hi])
        return (t1 - t0 - own) * REFERENCE_KERNEL_S * speed

    def raw_seconds(self, interval):
        t0, t1, own = interval
        return t1 - t0 - own
