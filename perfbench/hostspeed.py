"""Host-speed calibration for timings taken on a shared machine.

On a small virtual machine that shares its cores with other tenants, the
same code runs at speeds up to 2x apart, switching within a second, and the
share of slow time drifts over minutes with the neighbours' load. CPU time
moves with wall time, so it does not help. While a timed phase runs, a
timer signal interrupts it every INTERVAL_S and times a short fixed kernel.
Each timing the benchmark gates on is reported at the nominal host speed,
``raw * NOMINAL_KERNEL_S / mean(kernel times taken during it)``, widened to
the MIN_SAMPLES samples nearest its middle when it is short. The time spent
in the kernel is left out of every timing.

The kernel is benchmark code only, and the program never runs it, so a
change to the program moves the scaled times exactly as much as the raw
ones. Like the program's peak search, it is a Python loop of scalar numpy
calls.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
# The host's speed changes from one sample to the next (autocorrelation about
# 0.2-0.5 at lag 1), so a timing is scaled by the samples taken during it;
# one with fewer than MIN_SAMPLES inside it by the MIN_SAMPLES nearest.
MIN_SAMPLES = 3
# Kernel time on an idle core of the 2-vCPU x86_64 machine the benchmark was
# defined on; scaled times read as times on that machine, unloaded.
NOMINAL_KERNEL_S = 0.6e-3

_X = np.array([0.3])


def kernel() -> complex:
    acc = 0j
    for i in range(100):
        c = np.cos(_X * (i % 7))
        s = np.sin(_X)
        p = np.sqrt(1.0 - c * c) * s + 1j * c
        acc += complex(p[0]) * (1j ** (i % 4))
    return acc


class HostSpeed:
    """Kernel timings taken by a timer signal while the sampler runs.

    Use it as a context manager around a timed phase, in the main thread.
    Read times with `clock`, which leaves the sampling out. Once the phase
    is over, `scaled` turns an interval of that clock into nominal seconds.
    """

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds
        self.at: list[float] = []  # clock() when each sample was taken
        self.sampling_s = 0.0  # time spent in the signal handler
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.at.append(start - self.sampling_s)
        self.samples.append(took)
        self.sampling_s += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that every phase has at least one sample

    def clock(self) -> float:
        """Seconds on perf_counter's scale, less the time spent sampling."""
        while True:
            before = self.sampling_s
            now = time.perf_counter()
            if self.sampling_s == before:  # no sample landed in between
                return now - before

    def scale(self) -> float:
        """Nominal over measured speed, from all the samples."""
        return NOMINAL_KERNEL_S / float(np.mean(self.samples))

    def scaled(self, start: float, end: float) -> float:
        """Nominal seconds of the clock interval [start, end], scaled by the
        samples taken during it, or by the MIN_SAMPLES nearest its middle."""
        at = np.asarray(self.at)
        lo, hi = np.searchsorted(at, (start, end))
        if hi - lo < MIN_SAMPLES:
            mid = int(np.searchsorted(at, 0.5 * (start + end)))
            hi = min(len(at), max(mid + MIN_SAMPLES // 2, MIN_SAMPLES))
            lo = max(0, hi - MIN_SAMPLES)
        return (end - start) * NOMINAL_KERNEL_S / float(np.mean(self.samples[lo:hi]))


def timed(fn, *args):
    """(result, nominal seconds, raw seconds) of one call, sampled on its own."""
    host = HostSpeed()
    with host:
        start = host.clock()
        result = fn(*args)
        end = host.clock()
    return result, host.scaled(start, end), end - start
