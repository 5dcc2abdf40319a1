"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half in spells of seconds to minutes: a fixed round trip took 140 ms in one
ten-second window and 215 ms in the next, with no time stolen from the
process (its CPU time tracked its wall time). A fixed piece of reference work
slowed by the same factor, so the ratio of the two held within about 5%.

``Calibrator`` therefore times a fixed reference slice (a pure-Python loop,
a 200x200 matrix product and small numpy calls, about 5 ms) before and after
each measured call and, every ``INTERVAL_S`` during it, from a SIGALRM
handler that runs between bytecodes. The slices' own time is taken out of
the call's wall time. A call's calibrated time is that wall time times
``NOMINAL_SLICE_S`` over the mean slice time around it: the time the call
would take on the host at the speed where one slice takes ``NOMINAL_SLICE_S``.
The reference work is in this file only, so no change to the library moves it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: One reference slice on a quiet spell of a 2-vCPU Xeon host.
NOMINAL_SLICE_S = 0.005
#: Seconds between slices during a measured call.
INTERVAL_S = 0.1
#: Slices that start this close before or after a call count towards its
#: speed: the ones taken just before and just after it, not those of other
#: calls, since the host can switch speed between two calls.
PAD_S = 0.05

_MATRIX = np.random.default_rng(0).random((200, 200))
_SMALL = [np.random.default_rng(k).random(8) for k in range(50)]


def reference_work() -> None:
    total = 0
    for i in range(25_000):
        total += i * i
    for _ in range(5):
        _MATRIX @ _MATRIX
    for _ in range(10):
        for v in _SMALL:
            np.einsum("i,i->", v, v)


class Calibrator:
    """Reference slices, kept as (start, duration), around measured calls."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.in_slices = 0.0
        self._busy = False

    def slice(self) -> None:
        if self._busy:  # an alarm arrived during a slice
            return
        self._busy = True
        start = perf_counter()
        reference_work()
        duration = perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self.in_slices += duration
        self._busy = False

    def factor(self, start: float, end: float) -> float:
        """Host slowness over [start, end]: mean slice time there over nominal."""
        near = [d for s, d in zip(self.starts, self.durations) if start - PAD_S <= s <= end + PAD_S]
        return statistics.fmean(near) / NOMINAL_SLICE_S

    def measure(self, fn, *args, sample: bool = True):
        """Run ``fn(*args)`` between two slices, with slices every
        ``INTERVAL_S`` during it unless ``sample`` is false (a call that waits
        on a child process). Returns (result, start, end, wall seconds without
        the slices inside); the result is None when ``fn`` raised, and the
        exception propagates after the timer is stopped."""
        self.slice()
        before = self.in_slices
        previous = None
        if sample:
            previous = signal.signal(signal.SIGALRM, lambda *_: self.slice())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter()
        try:
            out = fn(*args)
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            end = perf_counter()
            inside = self.in_slices - before
            self.slice()
        return out, start, end, end - start - inside

    def calibrated(self, seconds: float, start: float, end: float) -> float:
        return seconds / self.factor(start, end)
