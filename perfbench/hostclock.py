"""Wall time corrected for the speed of a shared host.

The machines this benchmark runs on share their cores with other tenants.
Their speed drifts by a quarter to a half over tens of seconds, and process
CPU time drifts just as much, so the slowdowns are slower execution rather
than time spent descheduled.  While a run measures, a timer signal runs a
fixed numpy kernel every TICK_INTERVAL_S in the same thread.  The kernel is
benchmark code, independent of warpada.  Its mean duration during an
operation, divided by REFERENCE_KERNEL_S, is how much slower than the
reference the host ran then.  An operation's time is its wall time, minus
the time the kernel took inside it, divided by that factor.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_INTERVAL_S = 0.05
# the kernel runs that start inside an operation rate the host's speed for
# it; a short operation uses the MIN_TICKS runs nearest to it
MIN_TICKS = 10
# the kernel's median duration over 30 s of evaluate() on a 2-core x86
# sandbox (fastest 1.03 ms, mean 1.55 ms there)
REFERENCE_KERNEL_S = 1.25e-3

_X = np.linspace(0.0, 1.0, 64)
_W = np.full((16, 5), 0.2)


def kernel() -> float:
    """Small-array numpy calls driven from a Python loop, like the program."""
    acc = 0.0
    for i in range(250):
        y = np.sin(_X * (0.01 * i)) + _X
        acc += float((_W @ y[:5])[0]) + float(y.sum())
    return acc


class HostClock:
    """Use as a context manager around the measured part of a run; then
    ``seconds(start, end)`` converts an interval read from
    ``time.perf_counter`` inside it into reference-speed seconds."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # a parent process may have left SIGALRM blocked
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter()))

    def slowdown(self, start: float, end: float) -> float:
        """Host speed during [start, end] relative to the reference (>1: slower)."""
        def distance(tick):
            return max(start - tick[0], tick[0] - end, 0.0)

        ranked = sorted(self.ticks, key=distance)
        near = [t for t in ranked if distance(t) == 0.0]
        if len(near) < MIN_TICKS:
            near = ranked[:MIN_TICKS]
        if not near:
            raise RuntimeError("the host clock recorded no kernel runs")
        return statistics.fmean(e - s for s, e in near) / REFERENCE_KERNEL_S

    def seconds(self, start: float, end: float) -> float:
        inside = sum(min(e, end) - max(s, start) for s, e in self.ticks
                     if s < end and e > start)
        return (end - start - inside) / self.slowdown(start, end)
