"""Host speed, sampled while a worker runs.

The shared host this benchmark runs on changes speed by up to a third
within minutes (other tenants, clock boost), and that moves CPU time as much
as wall time.  So a worker samples the host's speed as it goes: a SIGPROF
timer interrupts it every PERIOD_S of its CPU time, and the handler times a
fixed pure-Python kernel of about REFERENCE_S.  The worker's CPU times, less
the kernel's own, are then scaled by REFERENCE_S / (median kernel time):
seconds at the speed at which the kernel takes REFERENCE_S.  The kernel is
the benchmark's own code, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.25
# Median CPU time of kernel() on a 2-vCPU Intel Xeon VM, Python 3.11.
REFERENCE_S = 0.0205
MIN_SAMPLES = 10

_TABLE = {i: (i * 7919) & 1023 for i in range(512)}


def _step(x: int) -> int:
    return _TABLE.get(x & 511, 0) ^ (x >> 3)


def kernel(n: int = 62500) -> int:
    """Integer arithmetic, a dict lookup and a call per step; allocates
    nothing that outlives it, so its time does not depend on the heap."""
    acc = 0
    for i in range(n):
        acc = (acc + _step(i + acc)) & 0xFFFFF
    return acc


class Sampler:
    """Times kernel() every PERIOD_S of this process's CPU time.

    Times are read from the thread's CPU clock: while ITIMER_PROF is armed,
    the process CPU clock advances only at scheduler ticks (4 ms here),
    too coarse for a 20 ms kernel.  The worker has one thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, _signum=None, _frame=None) -> None:
        t0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def clock(self) -> float:
        """CPU time of this (single) thread outside the kernel."""
        return time.thread_time() - sum(self.samples)

    def scale(self) -> float:
        """REFERENCE_S over the median kernel time; call after stop()."""
        while len(self.samples) < MIN_SAMPLES:
            self._tick()
        return REFERENCE_S / statistics.median(self.samples)
